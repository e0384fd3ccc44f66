package emu

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mpcdash/internal/model"
)

// This file is the hardened chunk-fetch engine behind Client: it verifies
// received bytes against Content-Length, classifies failures as retryable
// or permanent, retries with exponential backoff and deterministic jitter,
// resumes truncated transfers with HTTP Range requests, and — once the
// retry budget at the requested level is exhausted — degrades gracefully
// to the lowest ladder level rather than killing the session. Sec 6 of the
// paper runs the controller inside a real player; everything here is the
// transport robustness a real player needs that the control law alone
// cannot provide.

// Retry/backoff policy. Backoff counts against the session clock like
// any stall, exactly as a real player experiences it.
const (
	// DefaultRetries is the per-chunk retry budget dashclient, the
	// emulation example and the fleet's emu backend give Client.Retries.
	DefaultRetries = 2

	defaultBackoffBase = 50 * time.Millisecond
	backoffCap         = 2 * time.Second
)

// statusError is a non-2xx HTTP response. 5xx (and 429) are transient
// server conditions worth retrying; other 4xx mean the request itself is
// wrong and will never succeed.
type statusError struct {
	URL  string
	Code int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("GET %s: status %d %s", e.URL, e.Code, http.StatusText(e.Code))
}

func (e *statusError) retryable() bool {
	return e.Code >= 500 || e.Code == http.StatusTooManyRequests
}

// truncatedError is a transfer that delivered fewer bytes than the server
// promised in Content-Length — a dropped connection mid-body. The seed
// client silently counted these as complete chunks, corrupting every
// throughput sample downstream.
type truncatedError struct {
	URL       string
	Got, Want int64
}

func (e *truncatedError) Error() string {
	return fmt.Sprintf("GET %s: truncated transfer: %d of %d bytes", e.URL, e.Got, e.Want)
}

// retryable classifies err for the retry loop: true means another attempt
// may succeed (5xx, dropped/truncated transfer, timeout of one attempt);
// false means the failure is permanent (4xx such as 404, or the session
// context itself is done).
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false // session cancelled/expired: nothing is worth retrying
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.retryable()
	}
	// Truncations, per-attempt timeouts, connection resets, unexpected
	// EOFs: all transient transport failures.
	return true
}

// downloader executes verified, retried, resumable chunk downloads.
// It is not safe for concurrent use; each Client session owns one.
type downloader struct {
	httpc       *http.Client
	baseURL     string
	retries     int           // extra attempts per level after the first
	attemptTO   time.Duration // per-attempt wall-clock cap; 0 = none
	backoffBase time.Duration
	fallback    bool       // degrade to level 0 after exhausting retries
	rng         *rand.Rand // deterministic backoff jitter
	start       time.Time  // session start on the wall clock
	scale       float64    // media s per wall s
}

// newDownloader materializes the Client's transport policy.
func (c *Client) newDownloader(httpc *http.Client) *downloader {
	base := c.BackoffBase
	if base <= 0 {
		base = defaultBackoffBase
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	return &downloader{
		httpc:       httpc,
		baseURL:     c.BaseURL,
		retries:     max(c.Retries, 0),
		attemptTO:   c.AttemptTimeout,
		backoffBase: base,
		fallback:    !c.DisableFallback,
		rng:         rand.New(rand.NewSource(seed)),
		start:       time.Now(),
		scale:       c.TimeScale,
	}
}

// media converts a wall-clock duration to media seconds.
func (d *downloader) media(dur time.Duration) float64 { return dur.Seconds() * d.scale }

// chunkURL is the DASH segment path ($Number$ is 1-based).
func (d *downloader) chunkURL(level, number int) string {
	return fmt.Sprintf("%s/video/%d/%d.m4s", d.baseURL, level, number)
}

// FetchChunk downloads chunk c.Index at level c.Level, retrying and
// resuming as configured, and returns the verified byte count. It records
// the transport work on c: one AttemptRecord per HTTP request, in the
// order issued and in media seconds, so retry and backoff time inside the
// chunk stays attributable; Retries (every request beyond the first,
// fallback requests included), Resumes and Fallback. It sets c.Level to
// the level the bytes were actually served at, lower than requested only
// when fallback engaged. The returned error is permanent: either the
// request can never succeed, the session context is done, or every
// recovery avenue — retries at the requested level, then the lowest
// level — has been exhausted.
func (d *downloader) FetchChunk(ctx context.Context, c *model.ChunkRecord) (int64, error) {
	defer func() { c.Retries = max(len(c.Attempts)-1, 0) }()
	level, number := c.Level, c.Index+1
	n, err := d.fetchLevel(ctx, c, level, number)
	if err == nil {
		return n, nil
	}
	// Graceful degradation: a transient failure that survived the whole
	// retry budget. A permanent failure (404, cancellation) would fail at
	// the lowest level too, so only transient exhaustion falls back.
	if d.fallback && level > 0 && retryable(ctx, err) {
		n, err2 := d.fetchLevel(ctx, c, 0, number)
		if err2 != nil {
			return 0, fmt.Errorf("emu: chunk %d: lowest-level fallback after %v also failed: %w", number, err, err2)
		}
		c.Level, c.Fallback = 0, true
		return n, nil
	}
	return 0, fmt.Errorf("emu: chunk %d level %d: %w", number, level, err)
}

// fetchLevel runs the retry/resume loop for one (level, number) pair,
// appending each request's record to c.Attempts. A request the server
// answered with the whole body instead of the asked-for range is not
// counted in c.Resumes, though its record keeps Resumed set.
func (d *downloader) fetchLevel(ctx context.Context, c *model.ChunkRecord, level, number int) (int64, error) {
	url := d.chunkURL(level, number)
	var (
		got  int64 // verified bytes received so far (resume offset)
		want int64 = -1
		last error
	)
	for attempt := 0; attempt <= d.retries; attempt++ {
		var backoff time.Duration
		if attempt > 0 {
			backoff = d.backoff(attempt)
			if err := sleepCtx(ctx, backoff); err != nil {
				return 0, err
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		resumed := got > 0
		aStart := time.Now()
		n, total, err := d.attempt(ctx, url, got)
		rec := model.AttemptRecord{
			Start:    d.media(aStart.Sub(d.start)),
			Duration: d.media(time.Since(aStart)),
			Backoff:  d.media(backoff),
			Level:    level,
			Resumed:  resumed,
		}
		if total >= 0 {
			want = total
		}
		if err == nil && want >= 0 && got+n != want {
			// Read ended without error but short of Content-Length.
			err = &truncatedError{URL: url, Got: got + n, Want: want}
		}
		var re *rangeIgnoredError
		ignored := errors.As(err, &re)
		if resumed && !ignored {
			c.Resumes++
		}
		if err == nil {
			// Complete: either verified against Content-Length or the
			// server sent no length and closed cleanly.
			c.Attempts = append(c.Attempts, rec)
			return got + n, nil
		}
		if ignored {
			// Server restarted the body from byte 0; the bytes we held
			// are useless.
			got = re.Got
		} else {
			got += n
		}
		rec.Error = err.Error()
		c.Attempts = append(c.Attempts, rec)
		last = err
		if !retryable(ctx, err) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("failed after %d attempts: %w", d.retries+1, last)
}

// rangeIgnoredError signals that a ranged request came back 200 (full
// body): the server ignored Range, and Got bytes of the fresh body were
// consumed before the failure-or-success was decided. It always wraps a
// retry of the full transfer.
type rangeIgnoredError struct {
	Got int64
	Err error
}

func (e *rangeIgnoredError) Error() string { return e.Err.Error() }
func (e *rangeIgnoredError) Unwrap() error { return e.Err }

// attempt issues one GET (ranged when offset > 0), drains the body, and
// returns (bytes read this attempt, absolute total length or -1 if
// unknown, error). For a 206 response the bytes read continue from
// offset; for an unexpected 200 the error is a rangeIgnoredError carrying
// how much of the restarted body arrived.
func (d *downloader) attempt(ctx context.Context, url string, offset int64) (int64, int64, error) {
	actx := ctx
	if d.attemptTO > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, d.attemptTO)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	if err != nil {
		return 0, -1, fmt.Errorf("emu: building request for %s: %w", url, err)
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return 0, -1, fmt.Errorf("emu: GET %s: %w", url, err)
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
	default:
		return 0, -1, &statusError{URL: url, Code: resp.StatusCode}
	}

	total := int64(-1)
	restarted := offset > 0 && resp.StatusCode == http.StatusOK
	switch {
	case resp.StatusCode == http.StatusPartialContent:
		// Prefer the authoritative Content-Range total; fall back to
		// offset + Content-Length.
		if t, ok := contentRangeTotal(resp.Header.Get("Content-Range")); ok {
			total = t
		} else if resp.ContentLength >= 0 {
			total = offset + resp.ContentLength
		}
	case resp.ContentLength >= 0:
		total = resp.ContentLength
	}

	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		err = fmt.Errorf("emu: reading %s: %w", url, err)
	}
	if restarted {
		return 0, total, &rangeIgnoredError{Got: n, Err: errRestarted(err, url)}
	}
	return n, total, err
}

// errRestarted wraps the read error of a restarted transfer, or marks a
// clean-but-unresumable read as needing a retry from scratch.
func errRestarted(readErr error, url string) error {
	if readErr != nil {
		return readErr
	}
	return fmt.Errorf("emu: GET %s: server ignored Range; restarting transfer", url)
}

// contentRangeTotal parses the complete length out of a
// "bytes start-end/total" Content-Range header.
func contentRangeTotal(h string) (int64, bool) {
	h = strings.TrimPrefix(h, "bytes ")
	i := strings.LastIndexByte(h, '/')
	if i < 0 {
		return 0, false
	}
	t, err := strconv.ParseInt(h[i+1:], 10, 64)
	if err != nil || t < 0 {
		return 0, false
	}
	return t, true
}

// backoff returns the pre-attempt delay: exponential in the attempt
// number, capped, with deterministic jitter in [0.5, 1.5) so synchronized
// clients do not retry in lockstep yet tests stay reproducible.
func (d *downloader) backoff(attempt int) time.Duration {
	delay := d.backoffBase << uint(attempt-1)
	if delay > backoffCap || delay <= 0 {
		delay = backoffCap
	}
	jitter := 0.5 + d.rng.Float64()
	return time.Duration(float64(delay) * jitter)
}

// sleepCtx waits for dur or until ctx is done, returning the context error
// in the latter case. It is the cancellation-aware replacement for every
// time.Sleep on the session path (backoff and buffer-full waits).
func sleepCtx(ctx context.Context, dur time.Duration) error {
	if dur <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
