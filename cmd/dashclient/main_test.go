package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// startServer serves a 5-chunk video over a constant link of kbps
// (media time), compressed scale×.
func startServer(t *testing.T, kbps, scale float64) string {
	t.Helper()
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	link, err := trace.FromRates("const", 1000, []float64{kbps})
	if err != nil {
		t.Fatal(err)
	}
	srv := emu.NewServer(m)
	base, err := srv.Start(emu.NewShaper(link.Scale(scale, scale)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return base
}

// A BB session over a 2000 kbps link compressed 50×: the client converts
// wall time back to media time by -scale, so the throughput it logs is
// the link's, not 50 times it.
func TestPlayScaledSession(t *testing.T) {
	base := startServer(t, 2000, 50)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "s.csv")
	tracePath := filepath.Join(dir, "s.trace.json")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-url", base, "-alg", "BB", "-scale", "50",
		"-csv", csvPath, "-trace-out", tracePath, "-metrics-addr", "127.0.0.1:0"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{
		"trace written to " + tracePath + " — ",
		"algorithm     BB\n",
		"transport     0 retries, 0 range resumes, 0 lowest-level fallbacks\n",
		"per-chunk CSV written to " + csvPath + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out.String())
		}
	}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("CSV has %d rows, want a header and 5 chunks", len(rows))
	}
	col := -1
	for i, name := range rows[0] {
		if name == "throughput_kbps" {
			col = i
		}
	}
	var thpt []float64
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		thpt = append(thpt, v)
	}
	sort.Float64s(thpt)
	if med := thpt[len(thpt)/2]; med < 2000/3 || med > 2000*3 {
		t.Errorf("median chunk throughput %.0f kbps over a 2000 kbps link", med)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"traceEvents"`)) {
		t.Errorf("trace file: %.200s", b)
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of dashclient"},
		{[]string{"-timeout", "x"}, 2, "invalid value"},
		{[]string{"-alg", "nope"}, 1, "dashclient: "},
		{[]string{"-url", "http://127.0.0.1:1", "-retries", "0"}, 1, "dashclient: "},
	} {
		var out, errb bytes.Buffer
		code := run(context.Background(), c.args, &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errb.String(), c.code, c.stderr)
		}
	}
}
