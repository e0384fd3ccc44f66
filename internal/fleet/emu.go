package fleet

import (
	"context"

	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
)

// The emulated backend plays each session over a real loopback HTTP
// connection: a per-session chunk server whose link is shaped to the
// session's trace (time-compressed by Options.EmuTimeScale), and the
// fault-tolerant download engine on the client side. It exercises the
// identical controller code as the simulator but through real sockets,
// so it is the backend for transport-layer load questions at hundreds of
// concurrent sessions, while the simulator backend scales to 100k. A
// failed session counts on the errors series (see runPop).

// playEmuSession runs one session end to end: a manifest truncated to the
// viewer's watch duration, a loopback server shaped to the session trace,
// and the emu client driving the population's controller.
func (f *Fleet) playEmuSession(ctx context.Context, ps *popState, session int) (sessionStats, error) {
	watch := ps.watchFor(session, f.manifest.ChunkCount)
	manifest, err := model.NewCBRManifest(f.manifest.Ladder, watch, f.manifest.ChunkDuration)
	if err != nil {
		return sessionStats{}, err
	}
	tr := ps.traceFor(session, f.pool)
	ts := f.opt.EmuTimeScale

	srv := emu.NewServer(manifest)
	base, err := srv.Start(emu.NewShaper(tr.Scale(ts, ts)))
	if err != nil {
		return sessionStats{}, err
	}
	defer srv.Close()

	client := &emu.Client{
		BaseURL:    base,
		Controller: ps.alg.Factory(manifest),
		Predictor:  ps.alg.Predictor(tr),
		BufferMax:  f.sc.bufferMax(),
		Horizon:    f.sc.horizon(),
		TimeScale:  ts,
		Retries:    emu.RetriesDefault,
		Seed:       int64(splitmix64(ps.seed^uint64(session)) >> 1),
	}
	if f.opt.Registry != nil {
		client.Obs = obs.NewRecorder(f.opt.Registry, nil).WithSession(session)
	}
	res, err := client.Run(ctx)
	if err != nil {
		return sessionStats{}, err
	}
	truncateAbandon(res, ps.pop.AbandonRebufferSec)
	return ps.stats(res, res.QoE(f.weights, model.QIdentity), res.ComputeMetrics(model.QIdentity), watch), nil
}

// truncateAbandon applies the abandon-on-rebuffer policy to a finished
// emulated session: the log is cut at the chunk whose stall pushed
// cumulative rebuffering past the threshold — the viewer left during
// that stall, and nothing after it was watched. (The simulator backend
// enforces the policy during the run; here the downloads already
// happened, but the session's sequential determinism makes the prefix
// identical either way.)
func truncateAbandon(res *model.SessionResult, thresholdSec float64) {
	if thresholdSec <= 0 {
		return
	}
	var cum float64
	for i := range res.Chunks {
		cum += res.Chunks[i].Rebuffer
		if cum >= thresholdSec {
			res.Chunks = res.Chunks[:i+1]
			return
		}
	}
}
