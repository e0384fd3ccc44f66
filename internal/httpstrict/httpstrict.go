// Package httpstrict is test support for the module's HTTP servers (the
// abrsvc decision API and the emu chunk origin): middleware that fails the
// test when a handler calls WriteHeader after the response header is
// committed. net/http ignores such a call and only logs "superfluous
// response.WriteHeader", so the status the handler meant to send is lost
// without a failing request to show it.
package httpstrict

import (
	"net/http"
	"testing"
)

// Middleware returns middleware (fit for emu.Server.Wrap) that reports,
// through t.Errorf, every WriteHeader made after the handler's first Write
// or first WriteHeader.
func Middleware(t testing.TB) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(&writer{ResponseWriter: w, t: t, r: r}, r)
		})
	}
}

// writer tracks whether the header is committed.
type writer struct {
	http.ResponseWriter
	t         testing.TB
	r         *http.Request
	committed bool
}

func (w *writer) WriteHeader(code int) {
	if w.committed {
		w.t.Errorf("%s %s: WriteHeader(%d) after the response header was committed", w.r.Method, w.r.URL.Path, code)
	}
	w.committed = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *writer) Write(p []byte) (int, error) {
	w.committed = true
	return w.ResponseWriter.Write(p)
}
