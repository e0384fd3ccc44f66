package emu

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/mpd"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
)

// Client is the DASH player half of the emulation: it fetches the manifest,
// then plays it through sim.Play over an HTTP link — the same sequential
// chunk loop as the simulator, the modified dash.js behaviour of Sec 6.
// Buffer accounting is in media seconds while downloads happen in
// (possibly compressed) wall time; TimeScale is the
// media-seconds-per-wall-second factor and must match the factor the link
// trace was scaled by.
type Client struct {
	BaseURL    string
	Controller abr.Controller
	Predictor  predictor.Predictor
	TimeScale  float64 // media s per wall s (1 = real time)
	HTTP       *http.Client

	// Config is the player configuration shared with the simulator:
	// buffer cap, horizon, startup policy, watch length, abandonment and
	// observability.
	sim.Config

	// Retries is the number of additional attempts per chunk after a
	// failed or truncated download (dropped connection, 5xx, timeout).
	// 0 (or a negative value) disables retries entirely — the first
	// failure is final; DefaultRetries is the usual budget. Retry and
	// backoff time count against the session like any stall, exactly as
	// a real player experiences it.
	Retries int
	// AttemptTimeout caps the wall-clock time of a single download
	// attempt; an attempt exceeding it is aborted and classified as
	// retryable (a stalled transfer). 0 means no per-attempt cap.
	AttemptTimeout time.Duration
	// BackoffBase scales the exponential backoff between attempts (base,
	// 2·base, 4·base, … capped at 2 s, each scaled by deterministic
	// jitter in [0.5, 1.5)). 0 selects 50 ms.
	BackoffBase time.Duration
	// DisableFallback turns off graceful degradation. By default, a
	// chunk that exhausts its retries at the chosen level is re-fetched
	// at the lowest ladder level before the session is failed, and the
	// event is recorded on the chunk's record.
	DisableFallback bool
	// Seed makes the backoff jitter deterministic; 0 selects a fixed
	// default seed.
	Seed int64
}

// newHTTPClient is the default transport when the caller supplies none: a
// dedicated http.Client instead of http.DefaultClient, so sessions never
// share (or pollute) the process-global connection pool, and with its
// knobs explicit. A player holds exactly one origin connection, but fleet
// runs put dozens of concurrent players in one process — per-host idle
// capacity keeps each player reusing its own connection instead of
// competing for the default transport's two idle slots per host. There is
// no overall client timeout: per-attempt pacing is the player's job
// (AttemptTimeout), and a shaped 4 s chunk on a slow trace legitimately
// takes minutes of wall time.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Run plays the whole video with the pre-bound Controller and returns the
// session log in media-time units, directly comparable with simulator
// output.
func (c *Client) Run(ctx context.Context) (*model.SessionResult, error) {
	return c.run(ctx, func(*model.Manifest) abr.Controller { return c.Controller })
}

// RunWithController fetches the manifest first and then binds the
// controller to it — for factories that need the ladder and chunking
// (every controller constructed via abr.Factory).
func (c *Client) RunWithController(ctx context.Context, factory abr.Factory) (*model.SessionResult, error) {
	return c.run(ctx, factory)
}

func (c *Client) run(ctx context.Context, bind abr.Factory) (*model.SessionResult, error) {
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = newHTTPClient()
	}
	man, err := c.fetchManifest(ctx, httpc)
	if err != nil {
		return nil, err
	}
	ctrl := bind(man)
	link := &httpLink{ctx: ctx, engine: c.newDownloader(httpc)}
	return sim.Play(man, link, ctrl, c.Predictor, c.Config)
}

// httpLink is the sim.Link of an emulated session: chunks are real HTTP
// downloads through the fault-tolerant engine, the clock is wall time
// scaled to media seconds, and buffer-full waits are real sleeps.
type httpLink struct {
	ctx    context.Context
	engine *downloader // also holds the session's wall-clock start and time scale
	chunk  int         // last chunk fetched, for error context
}

func (l *httpLink) Now() float64 { return l.engine.media(time.Since(l.engine.start)) }

func (l *httpLink) Fetch(c *model.ChunkRecord) error {
	l.chunk = c.Index
	if err := l.ctx.Err(); err != nil {
		return fmt.Errorf("emu: session cancelled at chunk %d: %w", c.Index, err)
	}
	wallStart := time.Now()
	bytes, err := l.engine.FetchChunk(l.ctx, c)
	if err != nil {
		return err
	}
	// An instantaneous loopback download would feed +Inf into the
	// predictor and poison the harmonic mean; floor the duration.
	dlWall := max(time.Since(wallStart).Seconds(), minDownloadWall)
	c.SizeKbits = float64(bytes) * 8 / 1000
	c.DownloadTime = dlWall * l.engine.scale // media-time, so kbits/s match trace units
	return nil
}

// Wait holds off in wall time like a real player while the buffer is
// full, but stays responsive to cancellation.
func (l *httpLink) Wait(sec float64) error {
	if sec <= 0 {
		return nil
	}
	if err := sleepCtx(l.ctx, time.Duration(sec/l.engine.scale*float64(time.Second))); err != nil {
		return fmt.Errorf("emu: session cancelled waiting on a full buffer after chunk %d: %w", l.chunk, err)
	}
	return nil
}

// minDownloadWall floors the measured wall-clock download time so that an
// instantaneous loopback transfer cannot yield a zero duration (and an
// infinite throughput sample).
const minDownloadWall = 1e-6 // seconds

// fetchManifest downloads and converts the MPD into a model.Manifest.
func (c *Client) fetchManifest(ctx context.Context, httpc *http.Client) (*model.Manifest, error) {
	body, err := c.get(ctx, httpc, c.BaseURL+"/manifest.mpd")
	if err != nil {
		return nil, err
	}
	doc, err := mpd.Decode(body)
	if err != nil {
		return nil, err
	}
	as := doc.Period.AdaptationSet
	man, err := model.NewCBRManifest(model.Ladder(doc.LadderKbps()), as.SegmentCount, as.SegmentDuration)
	if err != nil {
		return nil, fmt.Errorf("emu: manifest rejected: %w", err)
	}
	return man, nil
}

func (c *Client) get(ctx context.Context, httpc *http.Client, url string) ([]byte, error) {
	body, err := c.getReader(ctx, httpc, url)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("emu: reading %s: %w", url, err)
	}
	return data, nil
}

func (c *Client) getReader(ctx context.Context, httpc *http.Client, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("emu: building request for %s: %w", url, err)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("emu: GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("emu: GET %s: status %s", url, resp.Status)
	}
	return resp.Body, nil
}
