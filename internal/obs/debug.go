package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the debug endpoint surface: Prometheus text at
// /metrics, the process expvar map at /debug/vars, and the full
// net/http/pprof suite at /debug/pprof/ — profile the hot MPC enumeration
// loop of a live session with
//
//	go tool pprof http://<addr>/debug/pprof/profile
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug mux on addr in a background goroutine and
// returns the bound address (useful with ":0"). The server closes its
// listener and connections when ctx ends.
func ServeDebug(ctx context.Context, addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewDebugMux(reg)}
	go func() { _ = srv.Serve(ln) }()
	context.AfterFunc(ctx, func() { _ = srv.Close() })
	return ln.Addr().String(), nil
}

// PublishExpvar exposes the registry's Snapshot under the given expvar
// name (conventionally "mpcdash"), alongside the stdlib's memstats and
// cmdline vars at /debug/vars. Publishing the same name twice is a no-op
// rather than the stdlib's panic, so tests and long-lived processes can
// call it freely.
func PublishExpvar(name string, reg *Registry) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))
}
