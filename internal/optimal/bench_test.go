package optimal

import (
	"testing"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

var solveSink float64

// BenchmarkSolve is one Solve per paper-fig8 trace under NewSolver
// defaults, the offline normalizer behind every n-QoE number, plus one
// finer grid on the HSDPA trace: 21 dense rates with 0.5 s time and
// buffer bins, a point of the grid-fineness sweep. Each Solve includes its
// incumbent's beam pass and the cut dynamic program.
func BenchmarkSolve(b *testing.B) {
	for _, k := range []struct {
		name   string
		kind   trace.DatasetKind
		levels int
		bin    float64
	}{
		{"fcc", trace.FCC, 0, 0},
		{"hsdpa", trace.HSDPA, 0, 0},
		{"synthetic", trace.Synthetic, 0, 0},
		{"hsdpa/dense21-bin0.5", trace.HSDPA, 21, 0.5},
	} {
		tr := fig8Trace(k.kind)
		b.Run(k.name, func(b *testing.B) {
			s := newTestSolver(b, model.EnvivioManifest())
			if k.levels > 0 {
				s.DenseLevels, s.TimeBin, s.BufferBin = k.levels, k.bin, k.bin
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveSink = s.Solve(tr)
			}
		})
	}
}
