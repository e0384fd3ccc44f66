package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	return Config{TraceCount: 5, Seed: 13, Out: &bytes.Buffer{}, CDFPoints: 5}
}

func TestFig7(t *testing.T) {
	cfg := tiny()
	res, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range datasetNames {
		if len(res.Mean[name].X) != cfg.TraceCount {
			t.Errorf("%s mean CDF has %d points", name, len(res.Mean[name].X))
		}
	}
	// The defining dataset character: HSDPA is more variable than FCC.
	if res.Stddev["HSDPA"].Quantile(0.5) <= res.Stddev["FCC"].Quantile(0.5) {
		t.Error("HSDPA should have higher median stddev than FCC")
	}
	// ...and harder to predict.
	if res.PredError["HSDPA"].Quantile(0.5) <= res.PredError["FCC"].Quantile(0.5) {
		t.Error("HSDPA should have higher median prediction error than FCC")
	}
	if out := cfg.Out.(*bytes.Buffer).String(); !strings.Contains(out, "Figure 7") {
		t.Error("missing printed header")
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := tiny()
	res, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range datasetNames {
		meds := res.Medians[name]
		if len(meds) != 6 {
			t.Fatalf("%s has %d algorithms", name, len(meds))
		}
		for alg, v := range meds {
			if math.IsNaN(v) {
				t.Errorf("%s/%s median is NaN", name, alg)
			}
		}
		// The paper's headline: RobustMPC leads the six-way comparison. A
		// 5-trace sample is noisy, so require an MPC variant within a
		// small tolerance of the leader rather than strictly on top.
		best := ""
		for alg, v := range meds {
			if best == "" || v > meds[best] {
				best = alg
			}
		}
		mpcBest := meds["RobustMPC"]
		if meds["FastMPC"] > mpcBest {
			mpcBest = meds["FastMPC"]
		}
		if mpcBest < meds[best]-0.05 {
			t.Errorf("%s: best algorithm is %s (medians %v), want an MPC variant within 0.05", name, best, meds)
		}
	}
}

func TestFig9Detail(t *testing.T) {
	cfg := tiny()
	res, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "FCC" {
		t.Errorf("dataset = %s", res.Dataset)
	}
	if len(res.AvgBitrate) != 6 || len(res.RebufferTime) != 6 {
		t.Errorf("expected 6 algorithms, got %d/%d", len(res.AvgBitrate), len(res.RebufferTime))
	}
	for alg, cdf := range res.AvgBitrate {
		if m := cdf.Quantile(0.5); m < 350 || m > 3000 {
			t.Errorf("%s median avg bitrate %v outside ladder range", alg, m)
		}
	}
}

func TestTable1Small(t *testing.T) {
	// Override the level list indirectly by checking only the smallest
	// row's invariants on a real run with the standard levels is too slow
	// for unit tests, so verify the plumbing on the real function but skip
	// in -short mode.
	if testing.Short() {
		t.Skip("table builds are slow")
	}
	cfg := tiny()
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, r := range rows {
		if r.FullBytesJS != 2*r.Levels*r.Levels*5 {
			t.Errorf("row %d: full size %d, want %d", i, r.FullBytesJS, 2*r.Levels*r.Levels*5)
		}
		if r.RLEBytes >= r.FullBytesJS {
			t.Errorf("row %d: RLE %d not smaller than full %d", i, r.RLEBytes, r.FullBytesJS)
		}
	}
	// The paper's observation: compression improves with more levels.
	if rows[len(rows)-1].CompressRatio >= rows[0].CompressRatio {
		t.Errorf("compression ratio should improve with levels: %v vs %v",
			rows[len(rows)-1].CompressRatio, rows[0].CompressRatio)
	}
}

func TestOverhead(t *testing.T) {
	cfg := tiny()
	rows, err := Overhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OverheadRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	if byName["FastMPC"].TableBytes <= 0 {
		t.Error("FastMPC should report table memory")
	}
	// FastMPC's lookup must be orders of magnitude cheaper than exact MPC.
	if byName["FastMPC"].PerDecision*10 > byName["MPC(exact)"].PerDecision {
		t.Errorf("FastMPC %v not ≪ exact MPC %v", byName["FastMPC"].PerDecision, byName["MPC(exact)"].PerDecision)
	}
}

func TestExtensions(t *testing.T) {
	cfg := tiny()
	cfg.TraceCount = 3

	preds, err := PredictorSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dataset := range datasetNames {
		if len(preds[dataset]) != 6 {
			t.Errorf("%s: %d predictors", dataset, len(preds[dataset]))
		}
		for name, v := range preds[dataset] {
			if math.IsNaN(v) {
				t.Errorf("%s/%s is NaN", dataset, name)
			}
		}
	}

	mdpRes, err := MDPComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dataset := range datasetNames {
		if len(mdpRes[dataset]) != 3 {
			t.Errorf("%s: %d algorithms", dataset, len(mdpRes[dataset]))
		}
	}

	qs, err := MultiQoESweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Errorf("quality sweep size = %d", len(qs))
	}
}

// TestSweeps runs the figures drawn by the sweep loop on two traces. Every
// series has one finite point per x, and BB's Fig 11a series is bitwise
// constant across error levels, because BB ignores the throughput forecast.
func TestSweeps(t *testing.T) {
	cfg := tiny()
	cfg.TraceCount = 2
	for _, tc := range []struct {
		key    string
		fig    func(Config) (*SweepResult, error)
		series int
	}{
		{"11a", Fig11a, 4},
		{"11d", Fig11d, 4},
		{"12a", Fig12a, 2},
		{"12b", Fig12b, 3},
	} {
		res, err := tc.fig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		if len(res.Series) != tc.series {
			t.Errorf("%s: %d series, want %d", tc.key, len(res.Series), tc.series)
		}
		for alg, ys := range res.Series {
			if len(ys) != len(res.X) {
				t.Errorf("%s/%s: %d points for %d x values", tc.key, alg, len(ys), len(res.X))
			}
			for i, y := range ys {
				if math.IsNaN(y) {
					t.Errorf("%s/%s: NaN at x=%v", tc.key, alg, res.X[i])
				}
			}
		}
		if tc.key != "11a" {
			continue
		}
		bb := res.Series["BB"]
		for i, y := range bb {
			if math.Float64bits(y) != math.Float64bits(bb[0]) {
				t.Errorf("11a: BB is %v at error %v but %v at %v", y, res.X[i], bb[0], res.X[0])
			}
		}
	}
}

// TestCatalogKeysUnique: a -fig key names exactly one experiment.
func TestCatalogKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.Key] {
			t.Errorf("key %q appears twice", e.Key)
		}
		seen[e.Key] = true
	}
}
