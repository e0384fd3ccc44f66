package emu

import (
	"io"
	"net/http"
	"testing"
	"time"

	"mpcdash/internal/mpd"
	"mpcdash/internal/trace"
)

// TestInFlightDownloadCompletesAcrossClose pins the graceful-close
// contract: Close stops the listener at once but an in-flight chunk
// download runs to completion, so a player mid-chunk sees a full body
// instead of an unexpected EOF it would burn a retry on.
func TestInFlightDownloadCompletesAcrossClose(t *testing.T) {
	m := testVideo(t, 2)
	// 1400 kbps link vs a 1400 kbit lowest-level chunk: the download takes
	// about a second — long enough to close the server around it.
	tr, err := trace.FromRates("slow", 10, []float64{1400})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)
	base, err := srv.Start(NewShaper(tr))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/video/0/1.m4s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Make sure the transfer is genuinely in flight before closing.
	var first [1]byte
	if _, err := io.ReadFull(resp.Body, first[:]); err != nil {
		t.Fatal(err)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	// New connections are refused once the listener closes; poll because
	// Close runs concurrently with us.
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(5 * time.Second)
	refused := false
	for time.Now().Before(deadline) {
		r, err := probe.Get(base + "/manifest.mpd")
		if err != nil {
			refused = true
			break
		}
		r.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Error("server still accepting new connections long after Close")
	}

	// The in-flight body still arrives complete.
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("in-flight download broken by Close: %v", err)
	}
	if got, want := 1+len(rest), mpd.ChunkBytes(m, 0, 0); got != want {
		t.Fatalf("in-flight download delivered %d bytes across Close, want %d", got, want)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
}
