// Command dashserver runs the shaped HTTP chunk origin: it serves the DASH
// manifest and media segments of a synthetic test video over a link whose
// throughput follows a trace, standing in for the paper's node.js server
// plus `tc` throttling. Point any HTTP client (or cmd/dashclient) at it.
// SIGINT/SIGTERM drains gracefully: the listener closes and in-flight
// chunk downloads finish, bounded by -drain. A second signal ends the
// process at once.
//
// Usage:
//
//	dashserver [-addr 127.0.0.1:8080] [-dataset hsdpa] [-seed 1]
//	           [-chunks 65] [-scale 1] [-metrics-addr 127.0.0.1:9090]
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mpcdash/internal/cli"
	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/trace"
)

func main() { cli.MainStoppable(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("dashserver", stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		dataset     = fs.String("dataset", "fcc", "link trace model: fcc, hsdpa, synthetic")
		seed        = fs.Int64("seed", 1, "trace seed")
		chunks      = fs.Int("chunks", 65, "video length in 4-second chunks")
		scale       = fs.Float64("scale", 1, "time-compression factor (media s per wall s)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = disabled)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight downloads on SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	m, err := model.NewCBRManifest(model.EnvivioLadder(), *chunks, 4)
	if err != nil {
		return cli.Fail(fs, err)
	}
	kind, err := trace.ParseKind(*dataset)
	if err != nil {
		return cli.Fail(fs, err)
	}
	tr := trace.Dataset(kind, 1, m.Duration()+120, *seed)[0]

	// The metrics endpoint ends with the server, whichever way run returns.
	debugCtx, stopDebug := context.WithCancel(ctx)
	defer stopDebug()
	srv := emu.NewServer(m)
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		obs.PublishExpvar("mpcdash", reg)
		dbg, err := obs.ServeDebug(debugCtx, *metricsAddr, reg)
		if err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "dashserver: metrics at http://%s/metrics, profiles at http://%s/debug/pprof/\n", dbg, dbg)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return cli.Fail(fs, err)
	}
	shaped := emu.NewListener(ln, emu.NewShaper(tr.Scale(*scale, *scale)))

	fmt.Fprintf(stdout, "dashserver: serving %d-chunk video at http://%s/manifest.mpd\n", *chunks, ln.Addr())
	fmt.Fprintf(stdout, "dashserver: link shaped by %s (mean %.0f kbps), time scale %gx\n", tr.Name, tr.Mean(), *scale)

	done := make(chan error, 1)
	go func() { done <- srv.ServeOn(shaped) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return cli.Fail(fs, err)
		}
	case <-ctx.Done():
		fmt.Fprintf(stdout, "dashserver: %v received, draining (deadline %s)\n", context.Cause(ctx), *drain)
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
		defer cancel()
		err := srv.Shutdown(dctx)
		<-done
		if err != nil {
			return cli.Fail(fs, fmt.Errorf("drain: %w", err))
		}
		fmt.Fprintln(stdout, "dashserver: drained cleanly")
	}
	return 0
}
