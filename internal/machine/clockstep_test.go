package machine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// chain is ClockStep.Advance's specification: the additions themselves.
func chain(t float64, charges []float64, m int) float64 {
	for ; m > 0; m-- {
		for _, c := range charges {
			t += c
		}
	}
	return t
}

// sameClock compares bit for bit, except that one NaN is as good as
// another: adding to a signalling NaN quiets it, skipping the addition
// does not, and no clock is ever NaN.
func sameClock(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// stencilCharges is the jacobi body's element under p: LoopIter, then
// five references with their operators' unit flops between them.
func stencilCharges(p Params) []float64 {
	c := []float64{p.LoopIter}
	for _, flops := range []int{4, 4, 3, 4, 0} {
		c = append(c, p.MemRef)
		for ; flops > 0; flops-- {
			c = append(c, p.Flop)
		}
	}
	return c
}

// checkAdvance compares one Advance with the chain and returns the
// stepper for the caller to inspect.
func checkAdvance(t *testing.T, name string, charges []float64, t0 float64, m int) *ClockStep {
	t.Helper()
	s := NewClockStep(charges)
	got, want := s.Advance(t0, m), chain(t0, charges, m)
	if !sameClock(got, want) {
		t.Errorf("%s: Advance(%v [%#x], %d) = %v [%#x], the additions give %v [%#x]", name,
			t0, math.Float64bits(t0), m, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	free := true // zero prices: nothing to count
	for _, c := range charges {
		free = free && math.Float64bits(c) == 0
	}
	if counted := s.Stepped + s.Chained; counted != m && !(free && counted == 0) {
		t.Errorf("%s: %d stepped + %d chained of %d elements", name, s.Stepped, s.Chained, m)
	}
	return s
}

// TestClockStepTable: the cases the exactness argument turns on, each
// against the literal additions, with the path taken pinned.
func TestClockStepTable(t *testing.T) {
	const ulp1 = 1.0 / (1 << 52) // ulp of [1, 2)
	const big = 1 << 20
	cases := []struct {
		name    string
		charges []float64
		t0      float64
		m       int
		chained int // elements that must fall back; -1: every one
	}{
		{"inside one binade", []float64{3 * ulp1, 0.25 * ulp1, 0.75 * ulp1}, 1, 1000, 0},
		{"m = 1", []float64{3 * ulp1}, 1.5, 1, 0},
		{"charges below half an ulp vanish", []float64{0.25 * ulp1, 0.49 * ulp1}, 1, big, 0},
		{"exact tie at the ulp: 1.5 ulp", []float64{1.5 * ulp1, ulp1}, 1, 100, -1},
		{"exact tie at the ulp: 0.5 ulp", []float64{0.5 * ulp1}, 1 + ulp1, 100, -1},
		{"a tie in [1,2) is none in [0.5,1)", []float64{1.5 * ulp1}, 0.75, 100, 0},
		{"crossing 2 inside the segment", []float64{0.001}, 1.9995, 2000, 1},
		{"crossing every binade from 2^-18 to 2^3", []float64{1e-7, 3e-7}, 4e-6, 20_000_000, 21},
		// 3e-7 happens to be an odd multiple of half an ulp of [2^-20, 2^-19).
		{"a tie that real prices meet", []float64{1e-7, 3e-7}, 1e-6, 2, -1},
		{"mantissa guard: four times the elements the binade holds", []float64{0x1p-22}, 1, 1 << 24, 2},
		// A charge the size of the clock crosses a binade with every element.
		{"charge far above the clock", []float64{1e6}, 1e-9, 3, -1},
		{"charge of 2^52 ulps and more", []float64{4}, 1, 2, -1},
		{"clock zero", []float64{0.5}, 0, 10, 4}, // 0, 0.5, then the crossings at 2 and 4
		{"clock subnormal", []float64{1e-300}, 5e-324, 10, 4},
		{"charge subnormal against a normal clock", []float64{5e-324}, 1e-300, 1 << 20, 0},
		{"clock negative", []float64{0.25}, -2, 4, -1},
		{"clock negative, crossing zero", []float64{0.25}, -0.6, 40, 9}, // three below zero, then six crossings up to 8
		{"clock +Inf", []float64{1}, math.Inf(1), 100, -1},
		{"clock NaN", []float64{1}, math.NaN(), 5, -1},
		{"negative charge", []float64{1, -0.5}, 1, 50, -1},
		{"infinite charge", []float64{math.Inf(1)}, 1, 5, -1},
		{"NaN charge", []float64{math.NaN()}, 1, 5, -1},
		{"zero prices", []float64{0, 0, 0}, 123.456, big, 0},
		{"zero prices, clock -0", []float64{0}, math.Copysign(0, -1), 3, 0},
		{"zero prices, no elements, clock -0", []float64{0}, math.Copysign(0, -1), 0, 0},
		{"no charges at all", nil, 7, big, 0},
		{"no charges at all, clock -0", nil, math.Copysign(0, -1), 3, 0},
		{"no elements", []float64{1}, 1, 0, 0},
		{"overflow to +Inf", []float64{math.MaxFloat64}, math.MaxFloat64, 10, -1},
	}
	for _, c := range cases {
		s := checkAdvance(t, c.name, c.charges, c.t0, c.m)
		want := c.chained
		if want < 0 {
			want = c.m
		}
		if s.Chained != want {
			t.Errorf("%s: %d of %d elements fell back to the additions, want %d", c.name, s.Chained, c.m, want)
		}
	}
}

// TestClockStepShippedParams: under each shipped cost model the stencil
// element steps exactly from a cold clock through every binade a run
// visits, in segment-sized advances; only binade crossings (and the
// zero clock) take the additions, and Ideal's zero prices take nothing.
func TestClockStepShippedParams(t *testing.T) {
	for _, p := range []Params{NCUBE7(), IPSC2(), Ideal()} {
		charges := stencilCharges(p)
		s := NewClockStep(charges)
		got, want := 0.0, 0.0
		total := 0
		for seg := 0; seg < 40_000; seg++ {
			m := 1 + seg%63
			got, want = s.Advance(got, m), chain(want, charges, m)
			total += m
			if !sameClock(got, want) {
				t.Fatalf("%s: after %d elements Advance gives %v [%#x], the additions %v [%#x]",
					p.Name, total, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		t.Logf("%s: clock %.6g s after %d elements; %d stepped, %d chained", p.Name, got, total, s.Stepped, s.Chained)
		switch {
		case p.Flop == 0 && s.Stepped+s.Chained != 0:
			t.Errorf("%s: zero prices but %d stepped, %d chained", p.Name, s.Stepped, s.Chained)
		case p.Flop != 0 && (s.Stepped+s.Chained != total || s.Chained > 64):
			t.Errorf("%s: %d stepped + %d chained of %d elements; want all but a few dozen stepped", p.Name, s.Stepped, s.Chained, total)
		}
	}
}

// TestClockStepProperty: random charge sequences, clocks and counts —
// the clock drawn near a binade boundary half the time, the charges
// from well below its ulp to well above it, some of them exact
// multiples of half an ulp — always agree with the additions, and the
// integer step carries the bulk.
func TestClockStepProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	stepped, chained := 0, 0
	for trial := 0; trial < 3000; trial++ {
		e := r.Intn(80) - 40
		t0 := math.Ldexp(1+r.Float64(), e)
		if r.Intn(2) == 0 {
			t0 = math.Ldexp(2-float64(r.Intn(1<<12))*0x1p-52, e)
		}
		ulp := math.Ldexp(1, e-52)
		charges := make([]float64, 1+r.Intn(6))
		for k := range charges {
			switch r.Intn(8) {
			case 0:
				charges[k] = ulp * float64(r.Intn(8)) / 2
			case 1, 2:
				charges[k] = ulp * r.Float64()
			default:
				charges[k] = ulp * math.Ldexp(r.Float64(), r.Intn(40))
			}
		}
		s := checkAdvance(t, "random", charges, t0, 1+r.Intn(500))
		stepped, chained = stepped+s.Stepped, chained+s.Chained
	}
	if stepped < 3*chained {
		t.Errorf("%d elements stepped, %d chained: the exact step is not the common case", stepped, chained)
	}
}

// FuzzClockAdvance: any clock, any element count, up to seven arbitrary
// float64 bit patterns as charges.
func FuzzClockAdvance(f *testing.F) {
	le := binary.LittleEndian
	seed := func(t0 float64, m uint16, charges ...float64) {
		var raw []byte
		for _, c := range charges {
			raw = le.AppendUint64(raw, math.Float64bits(c))
		}
		f.Add(math.Float64bits(t0), m, raw)
	}
	seed(0, 63, stencilCharges(NCUBE7())[:7]...)
	seed(1.9999, 500, 1e-5, 3e-5)
	seed(1, 100, 1.5/(1<<52))
	seed(-1, 9, 0.25)
	seed(math.Inf(1), 9, 1)
	seed(123, 9, 0, 0)
	f.Fuzz(func(t *testing.T, tbits uint64, m uint16, raw []byte) {
		var charges []float64
		for ; len(raw) >= 8 && len(charges) < 7; raw = raw[8:] {
			charges = append(charges, math.Float64frombits(le.Uint64(raw)))
		}
		checkAdvance(t, "fuzz", charges, math.Float64frombits(tbits), int(m))
	})
}
