package optimal

import (
	"testing"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

var solveSink float64

// BenchmarkSolve is one Solve per paper-fig8 trace under NewSolver
// defaults: the offline normalizer behind every n-QoE number.
func BenchmarkSolve(b *testing.B) {
	for _, k := range []struct {
		name string
		kind trace.DatasetKind
	}{{"fcc", trace.FCC}, {"hsdpa", trace.HSDPA}, {"synthetic", trace.Synthetic}} {
		tr := fig8Trace(k.kind)
		b.Run(k.name, func(b *testing.B) {
			s := newTestSolver(b, model.EnvivioManifest())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveSink = s.Solve(tr)
			}
		})
	}
}
