package machine_test

import (
	"math"
	"testing"

	"kali/internal/machine"
	"kali/internal/machine/sim"
)

// TestFastChargesMatchCharge: every single-term fast charge leaves the
// same clock, to the bit, and the same Stats as the general Charge with
// that count (ChargeFlopsUnit as that many one-flop Charges), from
// clocks of several magnitudes, where the rounding of each addition
// differs, on both calibrated machines.
func TestFastChargesMatchCharge(t *testing.T) {
	type fast struct {
		name  string
		fast  func(n *machine.Node, k int)
		slow  func(n *machine.Node, k int)
		multi bool // takes a count; the others charge one unit
	}
	one := func(c machine.Cost) func(*machine.Node, int) {
		return func(n *machine.Node, k int) {
			for ; k > 0; k-- {
				n.Charge(c)
			}
		}
	}
	charges := []fast{
		{"ChargeFlops", (*machine.Node).ChargeFlops, func(n *machine.Node, k int) { n.Charge(machine.Cost{Flops: k}) }, true},
		{"ChargeFlopsUnit", (*machine.Node).ChargeFlopsUnit, one(machine.Cost{Flops: 1}), true},
		{"ChargeMemRefs", (*machine.Node).ChargeMemRefs, func(n *machine.Node, k int) { n.Charge(machine.Cost{MemRefs: k}) }, true},
		{"ChargeLocTest", func(n *machine.Node, _ int) { n.ChargeLocTest() }, one(machine.Cost{LocTests: 1}), false},
		{"ChargeLoopIter", func(n *machine.Node, _ int) { n.ChargeLoopIter() }, one(machine.Cost{LoopIters: 1}), false},
		{"ChargeRefCheck", func(n *machine.Node, _ int) { n.ChargeRefCheck() }, one(machine.Cost{RefChecks: 1}), false},
		{"ChargeListInsert", func(n *machine.Node, _ int) { n.ChargeListInsert() }, one(machine.Cost{ListInserts: 1}), false},
	}
	// after runs charge k times from clock t0 on a fresh one-node
	// simulator and reports the clock and the node's Stats.
	after := func(p machine.Params, t0 float64, charge func(*machine.Node, int), k int) (float64, machine.Stats) {
		m, err := sim.New(1, p)
		if err != nil {
			t.Fatal(err)
		}
		var clock float64
		var st machine.Stats
		m.Run(func(n *machine.Node) {
			n.Advance(t0)
			charge(n, k)
			clock, st = n.Clock(), n.Stats()
		})
		return clock, st
	}
	for _, pm := range []struct {
		name string
		p    machine.Params
	}{{"NCUBE/7", machine.NCUBE7()}, {"iPSC/2", machine.IPSC2()}} {
		for _, t0 := range []float64{0, 1e-9, 3.3e-5, 0.1, 1.7, 12345.678, math.Nextafter(1, 2)} {
			for _, c := range charges {
				counts := []int{1}
				if c.multi {
					counts = []int{0, 1, 2, 3, 7, 1000}
				}
				for _, k := range counts {
					gotT, gotS := after(pm.p, t0, c.fast, k)
					wantT, wantS := after(pm.p, t0, c.slow, k)
					if math.Float64bits(gotT) != math.Float64bits(wantT) || gotS != wantS {
						t.Errorf("%s from %g, %s(%d): clock %v, %+v; Charge gives %v, %+v",
							pm.name, t0, c.name, k, gotT, gotS, wantT, wantS)
					}
				}
			}
		}
	}
}
