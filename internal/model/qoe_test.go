package model

import (
	"math"
	"testing"
	"testing/quick"
)

// session builds a SessionResult from level choices and rebuffer seconds.
func session(m *Manifest, levels []int, rebuffers []float64, startup float64) *SessionResult {
	r := &SessionResult{Algorithm: "test", StartupDelay: startup}
	for i, lvl := range levels {
		rec := ChunkRecord{
			Index:   i,
			Level:   lvl,
			Bitrate: m.Ladder[lvl],
		}
		if i < len(rebuffers) {
			rec.Rebuffer = rebuffers[i]
		}
		r.Chunks = append(r.Chunks, rec)
	}
	return r
}

func TestQoEHandComputed(t *testing.T) {
	m := EnvivioManifest()
	// Levels 350, 600, 600; one 2-second rebuffer; 1.5 s startup.
	r := session(m, []int{0, 1, 1}, []float64{0, 2, 0}, 1.5)
	w := Balanced // λ=1 µ=µs=3000
	want := (350 + 600 + 600) - 1*(250+0) - 3000*2 - 3000*1.5
	if got := r.QoE(w, QIdentity); math.Abs(got-want) > 1e-9 {
		t.Errorf("QoE = %v, want %v", got, want)
	}
}

func TestQoEWeightSensitivity(t *testing.T) {
	m := EnvivioManifest()
	r := session(m, []int{4, 0, 4}, []float64{0, 1, 0}, 0)
	base := r.QoE(Balanced, QIdentity)
	instab := r.QoE(AvoidInstability, QIdentity)
	rebuf := r.QoE(AvoidRebuffering, QIdentity)
	if instab >= base {
		t.Errorf("AvoidInstability should penalize this switchy session more: %v vs %v", instab, base)
	}
	if rebuf >= base {
		t.Errorf("AvoidRebuffering should penalize this stalling session more: %v vs %v", rebuf, base)
	}
}

func TestComputeMetrics(t *testing.T) {
	m := EnvivioManifest()
	r := session(m, []int{0, 2, 2, 4}, []float64{1, 0, 0.5, 0}, 2)
	got := r.ComputeMetrics(QIdentity)
	if want := (350 + 1000 + 1000 + 3000) / 4.0; math.Abs(got.AvgBitrate-want) > 1e-9 {
		t.Errorf("AvgBitrate = %v, want %v", got.AvgBitrate, want)
	}
	if want := (650 + 0 + 2000) / 3.0; math.Abs(got.AvgBitrateChange-want) > 1e-9 {
		t.Errorf("AvgBitrateChange = %v, want %v", got.AvgBitrateChange, want)
	}
	if got.Switches != 2 {
		t.Errorf("Switches = %d, want 2", got.Switches)
	}
	if math.Abs(got.RebufferTime-1.5) > 1e-9 {
		t.Errorf("RebufferTime = %v, want 1.5", got.RebufferTime)
	}
	if got.RebufferEvents != 2 {
		t.Errorf("RebufferEvents = %d, want 2", got.RebufferEvents)
	}
	if got.StartupDelay != 2 {
		t.Errorf("StartupDelay = %v, want 2", got.StartupDelay)
	}
}

func TestComputeMetricsEmpty(t *testing.T) {
	r := &SessionResult{}
	got := r.ComputeMetrics(QIdentity)
	if got.AvgBitrate != 0 || got.Switches != 0 {
		t.Errorf("empty session metrics = %+v", got)
	}
}

func TestQualityFuncs(t *testing.T) {
	if QIdentity(1234) != 1234 {
		t.Error("QIdentity not identity")
	}
	qlog := QLog(350)
	if qlog(350) != 0 {
		t.Errorf("QLog(350)(350) = %v, want 0", qlog(350))
	}
	if qlog(3000) <= qlog(1000) {
		t.Error("QLog not increasing")
	}
	if qlog(0) != 0 || qlog(-5) != 0 {
		t.Error("QLog should clamp non-positive input to 0")
	}
	qhd := QHD(3000)
	if math.Abs(qhd(3000)-3000) > 1e-6 {
		t.Errorf("QHD(3000)(3000) = %v, want 3000", qhd(3000))
	}
	if qhd(3000)-qhd(2000) <= qhd(1350)-qhd(350) {
		t.Error("QHD should emphasize the top of the ladder")
	}
	if qhd(0) != 0 {
		t.Error("QHD should clamp non-positive input to 0")
	}
}

// TestQoEMonotoneInRebuffer: adding stall time never helps.
func TestQoEMonotoneInRebuffer(t *testing.T) {
	m := EnvivioManifest()
	f := func(extra float64) bool {
		extra = math.Abs(extra)
		if math.IsNaN(extra) || math.IsInf(extra, 0) {
			return true
		}
		a := session(m, []int{2, 2}, []float64{0, 0}, 0).QoE(Balanced, QIdentity)
		b := session(m, []int{2, 2}, []float64{0, extra}, 0).QoE(Balanced, QIdentity)
		return b <= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStep checks Eq. (2)–(4) on hand-computed downloads of 4 s chunks
// into a 30 s buffer: the stall, the wait and the buffer left, and that
// the buffer left is the drained buffer plus L less the wait, never above
// B_max.
func TestStep(t *testing.T) {
	const chunkDur, bufMax = 4, 30
	for _, c := range []struct {
		name                                 string
		b, dl                                float64
		rebuffer, afterDrain, wait, wantNext float64
	}{
		{"stall", 2, 5, 3, 4, 0, 4},
		{"exact drain", 5, 5, 0, 4, 0, 4},
		{"buffer-full wait", 29, 1, 0, 32, 2, 30},
		{"lands on B_max", 27, 1, 0, 30, 0, 30},
		{"instant download", 10, 0, 0, 14, 0, 14},
		{"instant download, full", 28, 0, 0, 32, 2, 30},
		{"empty, instant", 0, 0, 0, 4, 0, 4},
	} {
		rebuffer, wait, next := Step(c.b, c.dl, chunkDur, bufMax)
		if rebuffer != c.rebuffer || wait != c.wait || next != c.wantNext {
			t.Errorf("%s: Step(%v, %v) = (%v, %v, %v), want (%v, %v, %v)",
				c.name, c.b, c.dl, rebuffer, wait, next, c.rebuffer, c.wait, c.wantNext)
		}
		if next != c.afterDrain-wait || next > bufMax {
			t.Errorf("%s: next %v, want afterDrain %v − wait %v and ≤ B_max %v", c.name, next, c.afterDrain, wait, bufMax)
		}
	}
}
