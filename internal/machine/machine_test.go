package machine

import "testing"

// The Transport contract is checked over both backends in
// transport_test.go, and what one backend alone promises in its own
// package; this file covers the cost-model presets and the shared
// reduction kernel.

func TestByName(t *testing.T) {
	for _, name := range []string{"ncube", "ipsc", "ideal"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("cray"); ok {
		t.Error("unknown machine should fail")
	}
}

func TestParamsContrast(t *testing.T) {
	// The calibration invariants the reproduction relies on:
	// NCUBE is slower in every primitive and has a much more expensive
	// combine stage relative to its message costs.
	nc, ip := NCUBE7(), IPSC2()
	if !(nc.Flop > ip.Flop && nc.RefCheck > ip.RefCheck && nc.Call > ip.Call) {
		t.Fatal("NCUBE must be slower than iPSC/2")
	}
	if !(nc.CombineStage > 10*ip.CombineStage) {
		t.Fatal("NCUBE combine stage must dominate iPSC/2's")
	}
}

func TestReduceByID(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	cases := map[string]float64{"sum": 14, "max": 5, "min": 1, "and": 1}
	for op, want := range cases {
		if got := reduceByID(vals, op); got != want {
			t.Errorf("reduceByID(%s) = %g, want %g", op, got, want)
		}
	}
	if got := reduceByID([]float64{1, 0, 1}, "and"); got != 0 {
		t.Errorf("and with a zero = %g, want 0", got)
	}
}

func TestUnknownReduceOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reduceByID([]float64{1, 2}, "xor")
}
