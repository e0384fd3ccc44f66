package optimal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// goldenCase is one pinned Solve input.
type goldenCase struct {
	name  string
	build func(t testing.TB) (*Solver, *trace.Trace)
}

// fig8Trace is the paper-fig8 trace of a dataset kind: experiments base
// seed 43, one trace per dataset, seeded and sized like Config.datasets.
func fig8Trace(kind trace.DatasetKind) *trace.Trace {
	return trace.Dataset(kind, 1, model.EnvivioManifest().Duration()+120, 43+int64(kind))[0]
}

func cbrManifest(t testing.TB, chunks int) *model.Manifest {
	t.Helper()
	m, err := model.NewCBRManifest(model.EnvivioLadder(), chunks, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var goldenCases = []goldenCase{
	{"fig8-fcc", func(t testing.TB) (*Solver, *trace.Trace) {
		return newTestSolver(t, model.EnvivioManifest()), fig8Trace(trace.FCC)
	}},
	{"fig8-hsdpa", func(t testing.TB) (*Solver, *trace.Trace) {
		return newTestSolver(t, model.EnvivioManifest()), fig8Trace(trace.HSDPA)
	}},
	{"fig8-synthetic", func(t testing.TB) (*Solver, *trace.Trace) {
		return newTestSolver(t, model.EnvivioManifest()), fig8Trace(trace.Synthetic)
	}},
	{"discrete-ladder", func(t testing.TB) (*Solver, *trace.Trace) {
		s := newTestSolver(t, model.EnvivioManifest())
		s.DenseLevels = 0
		return s, fig8Trace(trace.HSDPA)
	}},
	{"half-second-bins", func(t testing.TB) (*Solver, *trace.Trace) {
		m := cbrManifest(t, 12)
		s := newTestSolver(t, m)
		s.TimeBin, s.BufferBin = 0.5, 0.5
		return s, trace.GenFCC(31, m.Duration()+60)
	}},
	{"wrapping-zero-rate", func(t testing.TB) (*Solver, *trace.Trace) {
		// A 7 s, 3800 kbit trace with dead segments: downloads wrap it,
		// the largest several times, and some land on a zero-rate stretch.
		tr, err := trace.New("wrap", []trace.Sample{{Duration: 2, Kbps: 900}, {Duration: 1.5, Kbps: 0}, {Duration: 0.5, Kbps: 4000}, {Duration: 3, Kbps: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return newTestSolver(t, cbrManifest(t, 10)), tr
	}},
	{"dead", func(t testing.TB) (*Solver, *trace.Trace) {
		tr, err := trace.FromRates("dead", 10, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		return newTestSolver(t, model.EnvivioManifest()), tr
	}},
}

// goldenBits are math.Float64bits of Solve for goldenCases, recorded on
// amd64 from the map-based dynamic program this package used before its
// flat kernel. Any change to them is a change to every n-QoE number.
var goldenBits = map[string]uint64{
	"fig8-fcc":           0x40aaeddb3f7ebc3c, // 3446.9282188038615
	"fig8-hsdpa":         0x4101da876d4d8998, // 146256.92837054725
	"fig8-synthetic":     0x4103c78dee657bea, // 162033.74140450294
	"discrete-ladder":    0x41018da76d4d8998, // 143796.92837054725
	"half-second-bins":   0x40c3310ecdaab4b0, // 9826.115651453234
	"wrapping-zero-rate": 0xc05aaaaaaaaaaac0, // -106.66666666666697
	"dead":               0xfff0000000000000, // -Inf
}

// goldenStates are the frontier sizes summed over every chunk of the
// cheaper goldenCases, recorded with goldenBits. The optimum's value is
// insensitive to small pruning errors; the number of states kept is not.
var goldenStates = map[string]int{
	"discrete-ladder":    179984,
	"half-second-bins":   41468,
	"wrapping-zero-rate": 8535,
	"dead":               31,
}

// goldenCutStates are the frontier sizes of goldenCases summed over every
// chunk as Solve runs them, cut at the incumbent, recorded on amd64 when
// the cut was introduced. The cut keeps the uncut answer; these pin how
// much it prunes. Where the incumbent is −Inf ("dead") nothing is cut.
var goldenCutStates = map[string]int{
	"fig8-fcc":           13965,
	"fig8-hsdpa":         56285,
	"fig8-synthetic":     18883,
	"discrete-ladder":    34065,
	"half-second-bins":   1643,
	"wrapping-zero-rate": 273,
	"dead":               31,
}

// TestSolveGolden pins Solve bit for bit, the kept states of the cheaper
// cases uncut, and those of every case as Solve cuts them. Go may fuse
// x*y+z into one rounding on architectures with FMA instructions (arm64,
// ppc64le, s390x), so the pinned bits are amd64's.
func TestSolveGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, c := range goldenCases {
		s, tr := c.build(t)
		if got := s.Solve(tr); math.Float64bits(got) != goldenBits[c.name] {
			t.Errorf("%s: Solve = %v (bits %#x), want %v (bits %#x)", c.name,
				got, math.Float64bits(got), math.Float64frombits(goldenBits[c.name]), goldenBits[c.name])
		}
		if want, ok := goldenStates[c.name]; ok {
			states := 0
			s.run(tr, math.Inf(-1), 0, func(_ int, f []state) { states += len(f) })
			if states != want {
				t.Errorf("%s: frontiers hold %d states over all chunks, want %d", c.name, states, want)
			}
		}
		states := 0
		s.solve(tr, s.incumbent(tr), func(_ int, f []state) { states += len(f) })
		if want := goldenCutStates[c.name]; states != want {
			t.Errorf("%s: cut frontiers hold %d states over all chunks, want %d", c.name, states, want)
		}
	}
}

// goldenFrontiers are SHA-256 digests of every frontier solve records for
// goldenCases, in order, recorded on amd64 with goldenBits. SolvePlan's
// back-pointers depend on each frontier's order, not just its size.
var goldenFrontiers = map[string]string{
	"fig8-fcc":           "7e859d7b95a0e939ecf363692f8bf5471cd108be1a19c25fa33cbaf21d94e3cf",
	"fig8-hsdpa":         "aea1028d9096bf7e2e676946147d33eae9a1c350f3b3da535df1a0b7be22857a",
	"fig8-synthetic":     "91a5bbde5f8f5873d53028207d86e6812ad5d1c938d0735b94c416ee4bffdf0d",
	"discrete-ladder":    "3fdc9bfffcf148ac2324e1e7c415de25bac0f896d1b084c58f9f701bd569eb1e",
	"half-second-bins":   "7585b2b2ef192b1deadc73686ef9d77fe2478343dfd7b1137e22c5f3985f4d11",
	"wrapping-zero-rate": "68c92851d6f4c98dabbf51b86617fdaa9c2f66394f4a381bfdd340223600aa78",
	"dead":               "836913212d36f9682d7412b255695625fe9383e299aadbddcafc950b0f1352bd",
}

// goldenCutFrontiers are frontierDigest of goldenCases as Solve runs
// them, cut at the incumbent, recorded on amd64 when the cut was
// introduced. "dead" has no incumbent, so its digest is the uncut one.
var goldenCutFrontiers = map[string]string{
	"fig8-fcc":           "905a022132aba04ef85f359b5a82053902495cf61c1159e4360e38da192f2fe2",
	"fig8-hsdpa":         "77b24452c451f5d7b722fb61b97c881c2099c31f01f0063f04ad1ce3f300d4f0",
	"fig8-synthetic":     "527a599869187b1832e2141e7238bebe3e437cf8b93f409d0c3392913d304f4f",
	"discrete-ladder":    "1d53fdd58e425dddc8799d8b4860a38022291d9129e6b71d636acf2ab6bb6cd3",
	"half-second-bins":   "75f1de2e6e5ace3b39e396904a4d946e24e06f314053755fc1e88f60f609c005",
	"wrapping-zero-rate": "3f14f5c6f53d66eb40b597d736f19f1bef7c2a2ed5e0c9b3cad39730b4c12dd1",
	"dead":               "836913212d36f9682d7412b255695625fe9383e299aadbddcafc950b0f1352bd",
}

// frontierDigest hashes each frontier solve(tr, lb) records, in order:
// every state's key, the bits of its value, time and buffer, and its
// back-pointer, with a separator after each chunk. lb = −Inf records the
// uncut kernel alone.
func frontierDigest(s *Solver, tr *trace.Trace, lb float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	s.solve(tr, lb, func(_ int, f []state) {
		for i := range f {
			put(f[i].key)
			put(math.Float64bits(f[i].val))
			put(math.Float64bits(f[i].t))
			put(math.Float64bits(f[i].buf))
			put(uint64(int64(f[i].from)))
		}
		put(math.MaxUint64)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolveFrontierGolden pins every frontier of goldenCases, states and
// order, bit for bit, uncut and as Solve cuts them; amd64 only, as
// TestSolveGolden.
func TestSolveFrontierGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden frontiers are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, c := range goldenCases {
		s, tr := c.build(t)
		if got := frontierDigest(s, tr, math.Inf(-1)); got != goldenFrontiers[c.name] {
			t.Errorf("%s: frontier digest %s, want %s", c.name, got, goldenFrontiers[c.name])
		}
		if got := frontierDigest(s, tr, s.incumbent(tr)); got != goldenCutFrontiers[c.name] {
			t.Errorf("%s: cut frontier digest %s, want %s", c.name, got, goldenCutFrontiers[c.name])
		}
	}
}
