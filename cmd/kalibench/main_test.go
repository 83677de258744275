package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"kali/internal/bench"
)

// TestRunFlagHandling: -list prints every experiment id, an unknown
// -table is a usage error and an unreadable -diff baseline fails
// before anything runs.
func TestRunFlagHandling(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d: %s", code, stderr.String())
	}
	if got, want := strings.Fields(stdout.String()), bench.Order; !slices.Equal(got, want) {
		t.Errorf("-list printed %v, want %v", got, want)
	}
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-table", "nope"}, 2, `unknown experiment "nope"`},
		{[]string{"-quick", "-diff", "no-such-baseline.json"}, 1, "no-such-baseline.json"},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, stderr.String(), c.code, c.msg)
		}
	}
}

// TestRunQuickTableAgainstBaseline runs the CI gate on one cheap table:
// the paper's Figure 7 at quick size, emitted as JSON and held to the
// committed baseline.
func TestRunQuickTableAgainstBaseline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-table", "fig7", "-quick", "-json", "-diff", "../../bench/baseline.json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "1 table(s) no worse than") {
		t.Errorf("stderr %q does not report the comparison", stderr.String())
	}
	var tables []*bench.Table
	if err := json.Unmarshal(stdout.Bytes(), &tables); err != nil {
		t.Fatalf("stdout is not the tables' JSON: %v", err)
	}
	if len(tables) != 1 || tables[0].ID != "fig7" {
		t.Fatalf("got %d table(s), want fig7 alone", len(tables))
	}
}
