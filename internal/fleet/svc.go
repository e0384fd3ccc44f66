package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/abrsvc"
	"mpcdash/internal/model"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// The svc backend plays each session against a live ABR decision service
// over loopback HTTP: playback is the deterministic trace-driven simulator
// (identical buffer/timing arithmetic to the sim backend), but every
// per-chunk decision is a POST /v1/decide round trip to an abrd server —
// the control plane split the service exists for. With Options.SvcURL
// empty the fleet self-hosts an abrsvc.Server on 127.0.0.1:0 for the
// run's duration; pointing SvcURL at an external abrd load-tests that
// deployment instead.
//
// Determinism: the predictor state lives server-side (each registered
// session owns an ErrorTracked harmonic-mean predictor) and decide
// requests are idempotent by chunk index, so a session's decision
// sequence is a pure function of its trace — same-seed runs reproduce
// byte-identical per-session sequences even across shed/retry storms.
// As on every backend, a failed session counts on the errors series
// rather than aborting the population (see runPop).

// svcAlgorithms maps fleet algorithm names onto the service's decision
// rules. Only the table-lookup family exists server-side: the service is
// FastMPC-as-a-service, and "RobustMPC" and "RobustFastMPC" ride the same
// table through the error-adjusted lower bound (Theorem 1). The sim
// backend's RobustFastMPC is that rule too; its RobustMPC is the exact
// solver.
var svcAlgorithms = map[string]bool{ // name (lower-case) → robust
	"fastmpc":       false,
	"robustmpc":     true,
	"robustfastmpc": true,
}

// SvcDemoScenario is the built-in scenario for the svc backend: FastMPC
// and RobustMPC populations (the two rules the decision service
// implements) arriving all at once over a mixed broadband/mobile trace
// pool, with MaxInFlight set to the full session count so the whole
// population plays concurrently against the service — the `make
// svc-demo` load shape.
func SvcDemoScenario(sessions int) *Scenario {
	if sessions < 2 {
		sessions = 2
	}
	half := sessions / 2
	return &Scenario{
		Name:        "svc-demo",
		Seed:        1,
		Video:       VideoSpec{Chunks: 65, ChunkSec: 4},
		TracePool:   TracePoolSpec{PerKind: 64},
		MaxInFlight: sessions,
		Populations: []Population{
			{
				Name:      "fastmpc",
				Algorithm: "FastMPC",
				Sessions:  sessions - half,
				TraceMix:  map[string]float64{"fcc": 1, "hsdpa": 1},
			},
			{
				Name:      "robustmpc",
				Algorithm: "RobustMPC",
				Sessions:  half,
				TraceMix:  map[string]float64{"fcc": 1, "hsdpa": 1},
			},
		},
	}
}

// svcEnv is the per-run service wiring: one shared client, and the
// self-hosted server when no external URL was given.
type svcEnv struct {
	client *abrsvc.Client
	server *abrsvc.Server // nil when driving an external abrd
}

// startSvc prepares the decision-service environment for a run.
func (f *Fleet) startSvc(ctx context.Context) (*svcEnv, error) {
	if f.opt.SvcURL != "" {
		return &svcEnv{client: abrsvc.NewClient(f.opt.SvcURL)}, nil
	}
	var sessions int
	for i := range f.sc.Populations {
		sessions += f.sc.Populations[i].Sessions
	}
	// Self-hosted sizing: every resident session must fit, and the decide
	// path must absorb cap(f.sem) concurrent players without shedding
	// becoming the steady state — a deep queue with a generous wait keeps
	// 429s an overload signal rather than a retry storm.
	svc := abrsvc.New(abrsvc.Config{
		MaxSessions: sessions + cap(f.sem) + 1,
		MaxInFlight: 0, // 4×GOMAXPROCS
		QueueDepth:  4096,
		QueueWait:   500 * time.Millisecond,
		Registry:    f.opt.Registry,
	})
	srv, err := svc.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: self-hosting decision service: %w", err)
	}
	return &svcEnv{client: abrsvc.NewClient(srv.URL()), server: srv}, nil
}

// close shuts the self-hosted server down (draining in-flight decides)
// and releases the client's connections.
func (e *svcEnv) close(ctx context.Context) error {
	e.client.CloseIdle()
	if e.server == nil {
		return nil
	}
	return e.server.Shutdown(ctx)
}

// playSvcSession registers one session with the service, plays it through
// the simulator with the HTTP-backed controller, and deletes it. Every
// session registers the full video spec — watch truncation happens via
// sim.Config.MaxChunks — so all sessions of a scenario share one decision
// table server-side. The service returns no startup delay, so svc
// sessions start on the first chunk.
func (f *Fleet) playSvcSession(ctx context.Context, ps *popState, session int, tr *trace.Trace, cfg sim.Config) (*model.SessionResult, error) {
	v := f.sc.video()
	id := fmt.Sprintf("%s.%s.%d.%d", f.sc.Name, ps.pop.Name, f.sc.Seed, session)
	req := abrsvc.SessionRequest{
		ID: id,
		Config: abrsvc.SessionConfig{
			LadderKbps:   v.LadderKbps,
			Chunks:       v.Chunks,
			ChunkSec:     v.ChunkSec,
			Weights:      strings.ToLower(f.sc.Weights),
			BufferMaxSec: f.sc.BufferMaxSec,
			Horizon:      f.sc.Horizon,
			Robust:       svcAlgorithms[strings.ToLower(ps.alg.Name)],
		},
	}
	if _, err := f.svc.client.Register(ctx, req); err != nil {
		// A crashed prior run against an external abrd can leave the ID
		// resident until TTL eviction; reclaim it once.
		var apiErr *abrsvc.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 409 {
			return nil, err
		}
		if derr := f.svc.client.Delete(ctx, id); derr != nil {
			return nil, derr
		}
		if _, rerr := f.svc.client.Register(ctx, req); rerr != nil {
			return nil, rerr
		}
	}
	defer func() { _ = f.svc.client.Delete(context.WithoutCancel(ctx), id) }()

	probe := &svcProbe{}
	ctrl := &svcController{
		ctx:     ctx,
		client:  f.svc.client,
		session: id,
		name:    ps.alg.Name,
		probe:   probe,
		retries: svcDecideRetries,
	}
	cfg.Startup = sim.StartupFirstChunk
	res, err := sim.Run(f.manifest, tr, ctrl, probe, cfg)
	if err != nil {
		return nil, err
	}
	if ctrl.err != nil {
		return nil, ctrl.err
	}
	return res, nil
}

// svcDecideRetries bounds the shed-retry protocol per decision; with the
// client's capped exponential backoff this rides out about two seconds of
// sustained overload before the session is failed.
const svcDecideRetries = 8

// svcProbe is the client-side stand-in for the predictor: the simulator
// Observes realized throughputs into it and the controller drains them
// onto the wire, where the session's real (server-side) predictor
// consumes them. Predict returns nil — the forecast happens server-side.
type svcProbe struct {
	samples []float64
}

func (p *svcProbe) Name() string            { return "svc" }
func (p *svcProbe) Observe(kbps float64)    { p.samples = append(p.samples, kbps) }
func (p *svcProbe) Predict(n int) []float64 { return nil }

// svcController is an abr.Controller whose Decide is a round trip to the
// decision service. Transport errors latch into err (Decide cannot fail
// in-band); the session runner checks it after sim.Run returns.
type svcController struct {
	ctx     context.Context
	client  *abrsvc.Client
	session string
	name    string
	probe   *svcProbe
	retries int
	err     error
}

func (c *svcController) Name() string { return c.name }

func (c *svcController) Decide(st abr.State) abr.Decision {
	if c.err != nil {
		return abr.Decision{}
	}
	samples := append([]float64(nil), c.probe.samples...)
	c.probe.samples = c.probe.samples[:0]
	resp, err := c.client.DecideRetry(c.ctx, abrsvc.DecideRequest{
		Session:           c.session,
		Chunk:             st.Chunk,
		Buffer:            st.Buffer,
		PrevLevel:         st.Prev,
		ThroughputSamples: samples,
	}, c.retries)
	if err != nil {
		c.err = fmt.Errorf("fleet: decide chunk %d of %s: %w", st.Chunk, c.session, err)
		return abr.Decision{}
	}
	return abr.Decision{Level: resp.Level}
}
