package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestScenarioFileRoundTrip: WriteJSON then LoadScenario gives back the
// built-in scenarios unchanged, and a file that names an unknown field
// (here the removed launch_rate_per_sec), a negative limit or a trace mix
// with no positive weight fails to load rather than running something
// other than what it says.
func TestScenarioFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, sc := range []*Scenario{DefaultScenario(1000), SvcDemoScenario(1000)} {
		path := filepath.Join(dir, sc.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Errorf("%s: round trip changed the scenario:\n got %+v\nwant %+v", sc.Name, back, sc)
		}
	}

	load := func(name, body string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadScenario(path)
		return err
	}
	pops := `"populations": [{"name": "bb", "algorithm": "BB", "sessions": 1}]`
	if err := load("ok.json", `{`+pops+`}`); err != nil {
		t.Fatalf("minimal scenario: %v", err)
	}
	if err := load("bucket.json", `{"launch_rate_per_sec": 500, `+pops+`}`); err == nil ||
		!strings.Contains(err.Error(), "launch_rate_per_sec") {
		t.Errorf("scenario naming launch_rate_per_sec: err %v, want one naming the field", err)
	}
	if err := load("neg.json", `{"max_in_flight": -1, `+pops+`}`); err == nil {
		t.Error("negative max_in_flight accepted")
	}
	zeroMix := `"populations": [{"name": "bb", "algorithm": "BB", "sessions": 1, "trace_mix": {"fcc": 0}}]`
	if err := load("zero.json", `{`+zeroMix+`}`); err == nil {
		t.Error("trace mix with no positive weight accepted")
	}
}

// Trace kinds are names in any letter case, so a mix written "FCC" and
// "Hsdpa" is the mix written "fcc" and "hsdpa": the same kinds, the same
// weights and the same sessions on the same traces.
func TestTraceMixKindCase(t *testing.T) {
	mixes := []map[string]float64{
		{"fcc": 1, "hsdpa": 3},
		{"FCC": 1, "Hsdpa": 3},
		{"fcc": 0.5, "FCC": 0.5, "HSDPA": 3},
	}
	want := (&Population{TraceMix: mixes[0]})
	wantKinds, wantCum := want.mixKinds()
	for _, mix := range mixes[1:] {
		kinds, cum := (&Population{TraceMix: mix}).mixKinds()
		if !reflect.DeepEqual(kinds, wantKinds) || !reflect.DeepEqual(cum, wantCum) {
			t.Errorf("mix %v: kinds %v cumulative %v, want %v %v", mix, kinds, cum, wantKinds, wantCum)
		}
	}
}
