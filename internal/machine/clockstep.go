package machine

import "math"

// ClockStep advances a ClockCell value by whole elements of a loop
// whose every element makes the same sequence of charges — a forall
// body's LoopIter, then MemRef and unit Flop charges in instruction
// order — and returns the very bits the literal chain of float
// additions would leave, without making the chain.
//
// Why that is possible.  The clock is a float64 accumulator, so the
// unit size and the order of its additions are observable, and a
// floating multiply by the element count is not the same number.  But
// inside one binade [2^e, 2^(e+1)) every clock value is an integer
// multiple of the binade's ulp u = 2^(e-52), t = M·u with
// 2^52 <= M < 2^53, and for a charge c >= 0 whose sum stays inside the
// binade
//
//	fl(t + c) = (M + rn(c/u))·u
//
// with rn rounding to the nearest integer: the exact sum (M + c/u)·u is
// rounded to a multiple of u, and which neighbour wins depends on the
// fraction of c/u alone — not on M — unless that fraction is exactly
// one half, where round-to-even looks at M's parity.  So within a
// binade, and with no charge an exact tie, one element adds the fixed
// integer step Σ rn(c/u) to M, and m elements add m·step: one integer
// multiply-add on the float's bit pattern (the mantissa field is M's
// low 52 bits, and it does not carry while M + m·step < 2^53).
//
// Guards, each falling back to the literal additions: the clock must
// be positive and normal (its exponent field is the binade); every
// charge finite and non-negative; no charge an exact tie at this
// binade's ulp, and none of 2^52 ulps or more; and the elements taken
// in one step must leave M below 2^53, which is checked by dividing
// the room left in the mantissa field by the step.  At a binade
// crossing Advance steps as many elements as fit, adds one element
// literally, and re-derives the step for the new exponent; it derives
// nothing while the exponent stays.  When every price is zero (real
// backends, an idle cell) there is nothing to add at all.
//
// A ClockStep belongs to one node goroutine, like the cell it advances.
type ClockStep struct {
	charges []float64 // one element's charges, in order
	zero    bool      // every charge is +0: the clock cannot move
	plain   bool      // every charge is finite and >= 0

	exp  uint64 // sign and exponent field the step below was derived for
	ok   bool   // whether that binade has an exact step
	step uint64 // Σ rn(c/ulp) over charges, in ulps of that binade

	// Stepped and Chained count the elements Advance took by the integer
	// step and by literal additions: the share that fell back is
	// Chained / (Stepped + Chained).
	Stepped, Chained int
}

const (
	mantBits = 52
	mantMask = 1<<mantBits - 1
)

// NewClockStep returns the stepper for one element's charge sequence.
// It keeps the slice.
func NewClockStep(charges []float64) *ClockStep {
	s := &ClockStep{charges: charges, zero: true, plain: true, exp: ^uint64(0)}
	for _, c := range charges {
		if math.Float64bits(c) != 0 {
			s.zero = false
		}
		if !(c >= 0) || math.IsInf(c, 0) {
			s.plain = false
		}
	}
	return s
}

// Advance returns t after m elements: bit for bit the result of
//
//	for ; m > 0; m-- { for _, c := range charges { t += c } }
func (s *ClockStep) Advance(t float64, m int) float64 {
	if s.zero {
		if t == 0 && m > 0 && len(s.charges) > 0 {
			return 0 // -0 + +0 is +0
		}
		return t
	}
	for m > 0 {
		bits := math.Float64bits(t)
		if e := bits >> mantBits; e != s.exp {
			s.derive(e)
		}
		if s.ok {
			k := uint64(m)
			if room := mantMask - bits&mantMask; s.step != 0 && room/s.step < k {
				k = room / s.step
			}
			if k > 0 {
				t = math.Float64frombits(bits + k*s.step)
				m -= int(k)
				s.Stepped += int(k)
				continue
			}
		}
		for _, c := range s.charges {
			t += c
		}
		m--
		s.Chained++
	}
	return t
}

// derive computes the per-element step for the binade whose sign and
// exponent field is e, or marks the binade as having none.
func (s *ClockStep) derive(e uint64) {
	s.exp, s.ok, s.step = e, false, 0
	if !s.plain || e == 0 || e >= 2047 {
		return // zero, subnormal, negative, Inf or NaN clock
	}
	ulp := math.Ldexp(1, int(e)-1023-mantBits)
	for _, c := range s.charges {
		// Dividing by a power of two is exact unless it overflows (caught
		// below) or goes subnormal (then c/ulp < 1/2 either way).
		x := c / ulp
		if x >= 1<<mantBits {
			return
		}
		n := math.Floor(x)
		frac := x - n // exact below 2^52
		if frac == 0.5 {
			return
		}
		if frac > 0.5 {
			n++
		}
		if s.step += uint64(n); s.step > mantMask {
			return
		}
	}
	s.ok = true
}
