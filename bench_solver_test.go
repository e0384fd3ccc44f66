// Solver hot-path benchmarks: per-chunk decision latency and allocations
// for the exact MPC solver, and FastMPC table acquisition (a cold build,
// one of its rows and a registry hit). Run them with `make bench-solver`;
// the zero-allocation budgets of the scratch, row and Decide paths are
// core's AllocsPerRun tests (TestPlanScratchZeroAllocs,
// TestFirstLevelsZeroAllocs, TestMPCDecideZeroAllocs).
package mpcdash_test

import (
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
)

// raceEnabled is set by race_enabled_test.go under `go test -race`.
var raceEnabled bool

func solverOptimizer(b testing.TB) *core.Optimizer {
	opt, err := core.NewOptimizer(model.EnvivioManifest(), model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		b.Fatal(err)
	}
	return opt
}

// solverSpec is the paper's full 100×100 binning over the Envivio ladder.
func solverSpec() fastmpc.BinSpec {
	return fastmpc.DefaultBins(30, 3000)
}

func solverState() abr.State {
	return abr.State{Chunk: 30, Buffer: 14.2, Prev: 2, Forecast: []float64{1740, 1740, 1740, 1740, 1740}}
}

// BenchmarkSolver_PlanScratchSteadyState is the per-chunk decision with an
// explicit warmed Scratch — the zero-allocation contract.
func BenchmarkSolver_PlanScratchSteadyState(b *testing.B) {
	opt := solverOptimizer(b)
	st := solverState()
	var s core.Scratch
	opt.PlanScratch(&s, st.Chunk, st.Buffer, st.Prev, st.Forecast, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.PlanScratch(&s, st.Chunk, st.Buffer, st.Prev, st.Forecast, false)
	}
}

// startupState is the first-chunk state every RobustMPC session of a
// fleet-sim batch solves, recorded from sim.Run: no throughput sample
// yet, so the forecast and its lower bound are all zero (the minRate
// floor).
func startupState() abr.State {
	return abr.State{Chunk: 0, Buffer: 0, Prev: -1, Forecast: []float64{0, 0, 0, 0, 0}, Startup: true}
}

// BenchmarkSolver_PlanStartup is the startup solve (sim.StartupController):
// the horizon search over the whole 61-point Ts grid, 0 to 30 s by 0.5 s.
func BenchmarkSolver_PlanStartup(b *testing.B) {
	opt := solverOptimizer(b)
	st := startupState()
	var s core.Scratch
	opt.PlanScratch(&s, st.Chunk, st.Buffer, st.Prev, st.Forecast, st.Startup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.PlanScratch(&s, st.Chunk, st.Buffer, st.Prev, st.Forecast, st.Startup)
	}
}

// BenchmarkSolver_PlanPooled is the same decision through the pooled Plan
// entry point (callers without their own Scratch).
func BenchmarkSolver_PlanPooled(b *testing.B) {
	opt := solverOptimizer(b)
	st := solverState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Plan(st.Chunk, st.Buffer, st.Prev, st.Forecast, false)
	}
}

// BenchmarkSolver_MPCDecide is the full controller hot path every
// simulated session takes per chunk.
func BenchmarkSolver_MPCDecide(b *testing.B) {
	ctrl := core.NewMPC(model.Balanced, model.QIdentity, 30, 5)(model.EnvivioManifest())
	st := solverState()
	ctrl.Decide(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Decide(st)
	}
}

// BenchmarkSolver_TableBuildCold is the offline enumeration a cold start
// pays: the full 100×L×100 state space solved exactly.
func BenchmarkSolver_TableBuildCold(b *testing.B) {
	opt := solverOptimizer(b)
	spec := solverSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fastmpc.Build(opt, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver_FirstLevels is one rate row of the table build: the 100
// buffer bins × every previous level of one (chunk, forecast), solved by
// one FirstLevels call with a warm Scratch.
func BenchmarkSolver_FirstLevels(b *testing.B) {
	opt := solverOptimizer(b)
	spec := solverSpec()
	buffers := make([]float64, spec.BufferBins)
	for i := range buffers {
		buffers[i] = spec.BufferValue(i)
	}
	row := make([]int, len(buffers)*opt.Manifest.Levels())
	forecast := []float64{1740}
	var s core.Scratch
	opt.FirstLevels(&s, 0, forecast, buffers, row)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.FirstLevels(&s, 0, forecast, buffers, row)
	}
}

// BenchmarkSolver_TableCacheMemoryWarm is a registry hit after the first
// population built the table: the path N fleet populations share.
func BenchmarkSolver_TableCacheMemoryWarm(b *testing.B) {
	reg := fastmpc.NewRegistry()
	opt := solverOptimizer(b)
	spec := solverSpec()
	if _, err := reg.Table(opt, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Table(opt, spec); err != nil {
			b.Fatal(err)
		}
	}
}
