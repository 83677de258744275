package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunsFigure4: the example finds relax.kali, runs it on four
// processors and reports a positive convergence delta.
func TestRunsFigure4(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-p", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "processors 4\n") {
		t.Fatalf("did not run on 4 processors:\n%s", out)
	}
	_, line, ok := strings.Cut(out, "final convergence delta: ")
	if !ok {
		t.Fatalf("no delta printed:\n%s", out)
	}
	var delta float64
	if _, err := fmt.Sscanf(line, "%g", &delta); err != nil || delta <= 0 {
		t.Fatalf("delta %q, want a positive number (%v)", line, err)
	}
}
