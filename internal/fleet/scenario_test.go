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
// (here the removed launch_rate_per_sec) or a negative limit fails to
// load rather than running something other than what it says.
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
}
