package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/runner"
)

// TestMetricFamiliesGolden registers every metric emitter of the module on
// one obs.Registry: the fleet (which also builds an obs.Recorder), the
// runner, the emu server's Instrument middleware and the abrsvc service.
// Every family in the exposition must carry the mpcdash_ prefix, and the
// family set ("name kind" per line) must equal the committed golden list,
// so a rename or a new family shows up as a reviewed diff of that file.
// On a deliberate change, replace the file with the "got" list printed.
func TestMetricFamiliesGolden(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := New(testScenario(2), Options{Registry: reg}); err != nil {
		t.Fatal(err)
	}
	r := &runner.Runner{Obs: obs.NewRecorder(reg, nil)}
	if err := r.RunDatasetFunc(context.Background(), runner.Algorithm{Name: "none"}, nil, func(runner.Outcome) {}); err != nil {
		t.Fatal(err)
	}
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	emu.NewServer(m).Instrument(reg)
	abrsvc.New(abrsvc.Config{Registry: reg})

	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(expo.String(), "\n") {
		family, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		if !strings.HasPrefix(family, "mpcdash_") {
			t.Errorf("metric family %q lacks the mpcdash_ prefix", family)
		}
		got.WriteString(family + "\n")
	}

	golden := filepath.Join("testdata", "metric_families.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("metric families drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
