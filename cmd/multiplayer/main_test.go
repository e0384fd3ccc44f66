package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// playerRows returns the names in the per-player table.
func playerRows(out string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^(p\d+) +\d+ +\d+ +\d+\.\d\d +-?\d+$`).FindAllStringSubmatch(out, -1) {
		names = append(names, m[1])
	}
	return names
}

func TestTwoPlayers(t *testing.T) {
	for _, c := range []struct {
		args   []string
		header string
	}{
		{[]string{"-players", "2", "-chunks", "5"}, "2 × RobustMPC over const (mean 6000 kbps)\n"},
		{[]string{"-players", "2", "-chunks", "5", "-alg", "bb", "-link", "3000"}, "2 × bb over const (mean 3000 kbps)\n"},
		{[]string{"-players", "2", "-chunks", "5", "-dataset", "HSDPA", "-seed", "4"}, "2 × RobustMPC over hsdpa-4 "},
	} {
		code, out, errs := runCmd(t, c.args...)
		if code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", c.args, code, errs)
		}
		if !strings.HasPrefix(out, c.header) {
			t.Errorf("%q: stdout starts %q, want %q", c.args, out, c.header)
		}
		if got := playerRows(out); len(got) != 2 || got[0] != "p0" || got[1] != "p1" {
			t.Errorf("%q: player rows %v, want [p0 p1]:\n%s", c.args, got, out)
		}
		if !strings.Contains(out, "Jain fairness   ") || !strings.Contains(out, "utilization     ") {
			t.Errorf("%q: no link summary:\n%s", c.args, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of multiplayer"},
		{[]string{"-players", "x"}, 2, "invalid value"},
		{[]string{"-players", "0"}, 1, "multiplayer: need at least one player\n"},
		{[]string{"-chunks", "5", "-alg", "nope"}, 1, "multiplayer: "},
		{[]string{"-chunks", "5", "-dataset", "lte"}, 1, "multiplayer: unknown dataset \"lte\""},
	} {
		code, _, errs := runCmd(t, c.args...)
		if code != c.code || !strings.Contains(errs, c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errs, c.code, c.stderr)
		}
	}
}
