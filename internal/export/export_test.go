package export

import (
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func sampleSession(t *testing.T) *model.SessionResult {
	t.Helper()
	m := model.EnvivioManifest()
	tr := trace.GenFCC(9, m.Duration()+60)
	res, err := sim.Run(m, tr, abr.NewBB(5, 10)(m), predictor.NewHarmonicMean(5), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
