package fleet

import (
	"context"

	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// The emulated backend plays each session over a real loopback HTTP
// connection: a per-session chunk server whose link is shaped to the
// session's trace (time-compressed by Options.EmuTimeScale), and the
// fault-tolerant download engine on the client side. The client runs the
// simulator's own chunk loop (sim.Play) over that connection, on the
// fleet's full manifest with the same watch length, abandonment and
// startup policy as the sim backend, so it is the backend for
// transport-layer load questions at hundreds of concurrent sessions,
// while the simulator backend scales to 100k. A failed session counts on
// the errors series (see runPop).

// playEmuSession runs one session end to end: a loopback server shaped to
// the session trace, and the emu client driving the population's
// controller with the session's config.
func (f *Fleet) playEmuSession(ctx context.Context, ps *popState, session int, tr *trace.Trace, cfg sim.Config) (*model.SessionResult, error) {
	ts := f.opt.EmuTimeScale
	srv := emu.NewServer(f.manifest)
	srv.Instrument(f.opt.Registry)
	base, err := srv.Start(emu.NewShaper(tr.Scale(ts, ts)))
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	client := &emu.Client{
		BaseURL:    base,
		Controller: ps.alg.Factory(f.manifest),
		Predictor:  ps.alg.Predictor(tr),
		Config:     cfg,
		TimeScale:  ts,
		Retries:    emu.DefaultRetries,
		Seed:       int64(splitmix64(ps.seed^uint64(session)) >> 1),
	}
	return client.Run(ctx)
}
