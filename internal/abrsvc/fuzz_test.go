package abrsvc

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/fuzzcorpus"
	"mpcdash/internal/model"
)

// The /v1 endpoints decode attacker-controlled JSON before any
// authentication exists in front of the service, so the decode→validate
// path must be total: every byte string either fails readJSON/resolveConfig
// with an error or flows through the same constructors the handler calls —
// never a panic, never a decision outside the session's ladder.

// sessionRequestSeeds is the committed seed corpus for
// FuzzSessionRequestJSON: a valid registration in every shape the API
// documents, plus the rejection edges.
func sessionRequestSeeds() [][]byte {
	return [][]byte{
		[]byte(`{}`),
		[]byte(`{"id":"viewer-1","config":{}}`),
		[]byte(`{"config":{"ladder_kbps":[254,507,1254],"chunks":65,"chunk_sec":4,"weights":"balanced","buffer_max_sec":30,"horizon":5,"robust":true,"window":5,"link_group":"cell-7"}}`),
		[]byte(`{"config":{"weights":"avoid_rebuffering"}}`),
		[]byte(`{"config":{"ladder_kbps":[1000,500]}}`), // not ascending
		[]byte(`{"config":{"chunks":-1}}`),              // negative
		[]byte(`{"config":{"unknown_knob":1}}`),         // DisallowUnknownFields
		[]byte(`{"config":{"chunk_sec":1e309}}`),        // overflows float64
		[]byte(`{"config":{"ladder_kbps":[null]}}`),     // type mismatch
		[]byte(`{`), // malformed
	}
}

// FuzzSessionRequestJSON drives the registration decode path — readJSON,
// resolveConfig, manifest and optimizer construction — on arbitrary bodies.
// It stops short of the table build (the only step whose cost depends on
// config geometry); everything the handler validates before it runs here.
func FuzzSessionRequestJSON(f *testing.F) {
	for _, s := range sessionRequestSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := httptest.NewRequest("POST", "/v1/session", bytes.NewReader(data))
		var req SessionRequest
		if err := readJSON(r, &req); err != nil {
			return
		}
		rc, err := resolveConfig(req.Config)
		if err != nil {
			return
		}
		// resolveConfig's contract: defaults applied, everything positive.
		if rc.chunks <= 0 || rc.chunkSec < 0 || rc.bufferMax < 0 || rc.horizon <= 0 || rc.window <= 0 || len(rc.ladder) == 0 {
			t.Fatalf("resolveConfig accepted a config it should normalize or reject: %+v", rc)
		}
		manifest, err := model.NewCBRManifest(rc.ladder, rc.chunks, rc.chunkSec)
		if err != nil {
			return // handler turns this into 400
		}
		if _, err := core.NewOptimizer(manifest, rc.weights, model.QIdentity, rc.bufferMax, rc.horizon); err != nil {
			return // handler turns this into 400
		}
	})
}

// fuzzSession builds one decide-ready session around a tiny hand-built
// table, bypassing the optimizer enumeration.
func fuzzSession(t *testing.T) *session {
	t.Helper()
	ladder := model.Ladder{100, 500, 1000}
	spec := fastmpc.BinSpec{BufferBins: 4, BufferMax: 30, RateBins: 3, RateMin: 10, RateMax: 2000}
	full := &fastmpc.Table{Spec: spec, Levels: len(ladder), Entries: make([]uint8, spec.BufferBins*len(ladder)*spec.RateBins)}
	for i := range full.Entries {
		full.Entries[i] = uint8(i % len(ladder))
	}
	rc, err := resolveConfig(SessionConfig{LadderKbps: []float64(ladder)})
	if err != nil {
		t.Fatal(err)
	}
	return newSession("fuzz", 1, rc, fastmpc.Compress(full))
}

// decideRequestSeeds is the committed seed corpus for FuzzDecideRequestJSON.
func decideRequestSeeds() [][]byte {
	return [][]byte{
		[]byte(`{"session":"fuzz","chunk":0,"buffer":0,"prev_level":-1}`),
		[]byte(`{"session":"fuzz","chunk":1,"buffer":4,"prev_level":2,"throughput_samples":[2400]}`),
		[]byte(`{"session":"fuzz","chunk":7,"buffer":-3,"prev_level":99,"throughput_samples":[-1,0,1e308]}`),
		[]byte(`{"session":"fuzz","chunk":-1,"buffer":1e309}`), // buffer overflows float64
		[]byte(`{"throughput_samples":[null]}`),
		[]byte(`{"session":"fuzz","extra":true}`), // DisallowUnknownFields
		[]byte(`[]`),
		// Finite, but its harmonic mean overflows to +Inf.
		[]byte(`{"session":"fuzz","chunk":2,"prev_level":0,"throughput_samples":[1.7976931348623157e308]}`),
	}
}

// FuzzDecideRequestJSON drives the decide decode path and the controller
// step behind it on arbitrary bodies: whatever JSON decodes, the decision
// must stay inside the session's ladder, quote the matching bitrate and
// encode as JSON.
func FuzzDecideRequestJSON(f *testing.F) {
	for _, s := range decideRequestSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := httptest.NewRequest("POST", "/v1/decide", bytes.NewReader(data))
		var req DecideRequest
		if err := readJSON(r, &req); err != nil {
			return
		}
		ss := fuzzSession(t)
		for _, share := range []float64{0, 250} {
			resp := ss.decide(&req, share)
			if resp.Level < 0 || resp.Level >= len(ss.ladder) {
				t.Fatalf("decide chose level %d outside ladder of %d", resp.Level, len(ss.ladder))
			}
			if resp.BitrateKbps != ss.ladder[resp.Level] {
				t.Fatalf("decide quoted %v kbps for level %d, ladder says %v", resp.BitrateKbps, resp.Level, ss.ladder[resp.Level])
			}
			if resp.Chunk != req.Chunk || resp.Session != "fuzz" {
				t.Fatalf("decide echoed wrong identity: %+v", resp)
			}
			if _, err := json.Marshal(resp); err != nil {
				t.Fatalf("decide response cannot be encoded: %v", err)
			}
		}
		if s := lastSample(req.ThroughputSamples); s < 0 || math.IsNaN(s) {
			t.Fatalf("lastSample returned non-positive %v", s)
		}
	})
}

// TestFuzzCorpusCommitted keeps the committed seed corpora under
// testdata/fuzz in sync with the seed declarations above.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, target := range []struct {
		name  string
		seeds [][]byte
	}{
		{"FuzzSessionRequestJSON", sessionRequestSeeds()},
		{"FuzzDecideRequestJSON", decideRequestSeeds()},
	} {
		problems, err := fuzzcorpus.Sync(filepath.Join("testdata", "fuzz", target.name), target.seeds)
		if err != nil {
			t.Fatalf("%s: %v", target.name, err)
		}
		for _, p := range problems {
			t.Errorf("%s: %s", target.name, p)
		}
	}
}
