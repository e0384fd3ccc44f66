package fleet

import (
	"context"
	"testing"
)

// BenchmarkFleetSimSessions measures orchestration throughput on the sim
// backend (perfbench's fleet-sim workload is the tracked measurement).
func BenchmarkFleetSimSessions(b *testing.B) {
	sc := testScenarioBench(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(sc, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var total int
	for _, p := range sc.Populations {
		total += p.Sessions
	}
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

func testScenarioBench(sessions int) *Scenario {
	return &Scenario{
		Name:      "bench",
		Seed:      1,
		TracePool: TracePoolSpec{PerKind: 32},
		Populations: []Population{
			{
				Name:      "robustmpc",
				Algorithm: "RobustMPC",
				Sessions:  sessions / 2,
				TraceMix:  map[string]float64{"fcc": 1, "hsdpa": 1},
			},
			{
				Name:      "bb",
				Algorithm: "BB",
				Sessions:  sessions / 2,
				TraceMix:  map[string]float64{"fcc": 1, "hsdpa": 1},
			},
		},
	}
}
