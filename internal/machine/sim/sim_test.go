package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"kali/internal/machine"
)

// tr extracts the sim transport for tests of backend internals.
func tr(m *machine.Machine) *transport { return m.Transport().(*transport) }

func TestDim(t *testing.T) {
	for _, c := range []struct{ p, dim int }{{1, 0}, {2, 1}, {4, 2}, {8, 3}, {128, 7}, {5, 3}} {
		m := MustNew(c.p, machine.Ideal())
		if got := m.Dim(); got != c.dim {
			t.Errorf("Dim(P=%d) = %d, want %d", c.p, got, c.dim)
		}
	}
}

func TestRecvMatchesTagAndSender(t *testing.T) {
	// Node 2 receives from 0 and 1 in a fixed order even if messages
	// arrive in the opposite order; tags must also be matched.
	m := MustNew(3, machine.Ideal())
	m.Run(func(n *machine.Node) {
		switch n.ID() {
		case 0:
			n.Send(2, machine.TagUser, "a", 1)
			n.Send(2, machine.TagUser+1, "b", 1)
		case 1:
			n.Send(2, machine.TagUser, "c", 1)
		case 2:
			if got := n.Recv(1, machine.TagUser).Payload.(string); got != "c" {
				t.Errorf("from 1: got %q", got)
			}
			if got := n.Recv(0, machine.TagUser+1).Payload.(string); got != "b" {
				t.Errorf("tag+1: got %q", got)
			}
			if got := n.Recv(0, machine.TagUser).Payload.(string); got != "a" {
				t.Errorf("from 0: got %q", got)
			}
		}
	})
}

func TestMessageCausality(t *testing.T) {
	// Receiver clock after recv must be >= sender's send-complete time
	// plus hop latency.
	p := machine.NCUBE7()
	m := MustNew(2, p)
	var sendDone, recvClock float64
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			n.Advance(1.0) // sender is ahead
			n.Send(1, machine.TagUser, nil, 1000)
			sendDone = n.Clock()
		} else {
			n.Recv(0, machine.TagUser)
			recvClock = n.Clock()
		}
	})
	wantMin := sendDone + p.PerHop
	if recvClock < wantMin {
		t.Fatalf("receiver clock %.6f < causal bound %.6f", recvClock, wantMin)
	}
	// And the receiver pays receive overhead + per-byte copy.
	want := sendDone + p.PerHop + p.RecvOverhead + 1000*p.MsgPerByte
	if math.Abs(recvClock-want) > 1e-12 {
		t.Fatalf("receiver clock %.9f, want %.9f", recvClock, want)
	}
}

func TestSendChargesSender(t *testing.T) {
	p := machine.IPSC2()
	m := MustNew(2, p)
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			n.Send(1, machine.TagUser, nil, 512)
			want := p.MsgStartup + 512*p.MsgPerByte
			if math.Abs(n.Clock()-want) > 1e-12 {
				t.Errorf("sender clock = %g, want %g", n.Clock(), want)
			}
			st := n.Stats()
			if st.MsgsSent != 1 || st.BytesSent != 512 {
				t.Errorf("stats = %+v", st)
			}
		} else {
			n.Recv(0, machine.TagUser)
		}
	})
}

func TestSendToSelfPanics(t *testing.T) {
	m := MustNew(2, machine.Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			n.Send(0, machine.TagUser, nil, 0)
		}
	})
}

func TestChargeCosts(t *testing.T) {
	p := machine.NCUBE7()
	m := MustNew(1, p)
	m.Run(func(n *machine.Node) {
		n.Charge(machine.Cost{Flops: 2, MemRefs: 3, LoopIters: 1, Calls: 1, RefChecks: 5, LocTests: 2, ListInserts: 1})
		want := 2*p.Flop + 3*p.MemRef + p.LoopIter + p.Call + 5*p.RefCheck + 2*p.LocTest + p.ListInsert
		if math.Abs(n.Clock()-want) > 1e-12 {
			t.Errorf("clock = %g, want %g", n.Clock(), want)
		}
	})
}

// TestSingleTermChargesMatchCharge: the simulated clock is a float
// accumulator, so a fast charge may replace the general Charge only if
// it performs the identical additions.  ChargeLoopIter, and the
// register-held form of the per-element charges (ClockCell), must
// leave the clock bit-identical to the Charge / ChargeFlopsUnit /
// ChargeMemRefs sequence they stand in for, and the same FlopCount.
func TestSingleTermChargesMatchCharge(t *testing.T) {
	for _, p := range []machine.Params{machine.NCUBE7(), machine.IPSC2(), machine.Ideal()} {
		ref, got := MustNew(1, p), MustNew(1, p)
		const elems = 1000
		ref.Run(func(n *machine.Node) {
			for e := 0; e < elems; e++ {
				n.Charge(machine.Cost{LoopIters: 1})
				n.ChargeMemRefs(1)
				n.ChargeFlopsUnit(3)
				n.ChargeMemRefs(1)
				n.ChargeFlopsUnit(1)
			}
		})
		got.Run(func(n *machine.Node) {
			for e := 0; e < elems/2; e++ {
				n.ChargeLoopIter()
				n.ChargeMemRefs(1)
				n.ChargeFlopsUnit(3)
				n.ChargeMemRefs(1)
				n.ChargeFlopsUnit(1)
			}
			cell, u := n.ClockCell()
			clk := *cell
			for e := elems / 2; e < elems; e++ {
				clk += u.LoopIter
				clk += u.MemRef
				for k := 0; k < 3; k++ {
					clk += u.Flop
				}
				clk += u.MemRef
				clk += u.Flop
			}
			*cell = clk
			n.AddFlopCount(4 * (elems - elems/2))
		})
		if r, g := ref.Node(0).Clock(), got.Node(0).Clock(); r != g {
			t.Errorf("%s: clock %v via fast charges, want %v (bitwise)", p.Name, g, r)
		}
		if r, g := ref.Node(0).Stats(), got.Node(0).Stats(); r != g {
			t.Errorf("%s: stats %+v via fast charges, want %+v", p.Name, g, r)
		}
	}
}

func TestChargeSearchLog(t *testing.T) {
	p := machine.NCUBE7()
	m := MustNew(1, p)
	m.Run(func(n *machine.Node) {
		c0 := n.Clock()
		n.ChargeSearch(1) // 1 range: 1 probe
		oneRange := n.Clock() - c0
		c1 := n.Clock()
		n.ChargeSearch(8) // 8 ranges: 4 probes (2^3 <= 8)
		eight := n.Clock() - c1
		wantOne := p.SearchBase + p.SearchProbe
		wantEight := p.SearchBase + 4*p.SearchProbe
		if math.Abs(oneRange-wantOne) > 1e-12 || math.Abs(eight-wantEight) > 1e-12 {
			t.Errorf("search costs: got %g,%g want %g,%g", oneRange, eight, wantOne, wantEight)
		}
		// Every r charges the probes of the paper's search: the
		// smallest k >= 1 with 2^k > r, found here by counting up.
		for r := 0; r <= 5000; r++ {
			probes := 1
			for 1<<probes <= r {
				probes++
			}
			want := n.Clock() + (p.SearchBase + float64(probes)*p.SearchProbe)
			if n.ChargeSearch(r); n.Clock() != want {
				t.Fatalf("ChargeSearch(%d) moved the clock to %g, want %g", r, n.Clock(), want)
			}
		}
	})
}

func TestAdvanceNegativePanics(t *testing.T) {
	m := MustNew(1, machine.Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(func(n *machine.Node) { n.Advance(-1) })
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	p := machine.NCUBE7()
	m := MustNew(4, p)
	clocks := make([]float64, 4)
	m.Run(func(n *machine.Node) {
		n.Advance(float64(n.ID())) // clocks 0,1,2,3
		n.Barrier()
		clocks[n.ID()] = n.Clock()
	})
	want := 3 + tr(m).collectiveCost(8)
	for id, c := range clocks {
		if math.Abs(c-want) > 1e-12 {
			t.Fatalf("node %d clock = %g, want %g", id, c, want)
		}
	}
}

func TestAllReduceAndTrue(t *testing.T) {
	m := MustNew(3, machine.Ideal())
	m.Run(func(n *machine.Node) {
		if got := n.AllReduce(1, "and"); got != 1 {
			t.Errorf("and of all-true = %g", got)
		}
	})
}

func TestPhaseTimers(t *testing.T) {
	m := MustNew(2, machine.Ideal())
	m.Run(func(n *machine.Node) {
		n.StartPhase("outer")
		n.Advance(1)
		n.StartPhase("inner")
		n.Advance(2)
		n.StopPhase("inner")
		n.Advance(3)
		n.StopPhase("outer")
		if got := n.PhaseTime("inner"); got != 2 {
			t.Errorf("inner = %g", got)
		}
		if got := n.PhaseTime("outer"); got != 6 {
			t.Errorf("outer = %g", got)
		}
	})
	if m.MaxPhase("outer") != 6 {
		t.Fatalf("MaxPhase = %g", m.MaxPhase("outer"))
	}
}

func TestPhaseMismatchPanics(t *testing.T) {
	m := MustNew(1, machine.Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(func(n *machine.Node) {
		n.StartPhase("a")
		n.StopPhase("b")
	})
}

func TestMaxClockAndReset(t *testing.T) {
	m := MustNew(3, machine.Ideal())
	m.Run(func(n *machine.Node) { n.Advance(float64(n.ID()) * 5) })
	if m.MaxClock() != 10 {
		t.Fatalf("MaxClock = %g", m.MaxClock())
	}
	m.Reset()
	if m.MaxClock() != 0 {
		t.Fatalf("after Reset MaxClock = %g", m.MaxClock())
	}
	// Machine must be runnable again after Reset.
	m.Run(func(n *machine.Node) { n.Barrier() })
}

// TestDrainDeterministicClock: a WaitAny drain of one message
// from each peer ends on a clock that does not depend on physical
// arrival order, and counts one received message per request.
func TestDrainDeterministicClock(t *testing.T) {
	run := func() float64 {
		m := MustNew(4, machine.NCUBE7())
		var clock float64
		m.Run(func(n *machine.Node) {
			if n.ID() == 0 {
				reqs := []machine.Request{{From: 1, Tag: machine.TagUser}, {From: 2, Tag: machine.TagUser}, {From: 3, Tag: machine.TagUser}}
				done := make([]bool, len(reqs))
				firsts := []bool{true, true, true}
				for range reqs {
					i, _ := n.WaitAny(reqs, done, firsts)
					done[i] = true
				}
				if got := n.Stats().MsgsReceived; got != 3 {
					t.Errorf("MsgsReceived = %d, want 3", got)
				}
				clock = n.Clock()
			} else {
				n.Advance(float64(n.ID()) * 0.001)
				n.Send(0, machine.TagUser, nil, 64)
			}
		})
		return clock
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic clock: %g vs %g", got, first)
		}
	}
}

// TestQuickClockMonotonic: a random walk of charges never decreases
// the clock.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(ops []uint8) bool {
		m := MustNew(1, machine.NCUBE7())
		ok := true
		m.Run(func(n *machine.Node) {
			prev := n.Clock()
			for _, op := range ops {
				switch op % 4 {
				case 0:
					n.Charge(machine.Cost{Flops: int(op)})
				case 1:
					n.Charge(machine.Cost{MemRefs: int(op), LoopIters: 1})
				case 2:
					n.ChargeSearch(int(op%16) + 1)
				case 3:
					n.Advance(float64(op) * 1e-6)
				}
				if n.Clock() < prev {
					ok = false
				}
				prev = n.Clock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPerHopLatency: message arrival time grows with hypercube
// distance (node ids are addresses; Hamming distance = hops).
func TestPerHopLatency(t *testing.T) {
	p := machine.NCUBE7()
	m := MustNew(8, p)
	clocks := make([]float64, 8)
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			n.Send(1, machine.TagUser, nil, 8) // 1 hop
			n.Send(7, machine.TagUser, nil, 8) // 3 hops (111b)
		}
		if n.ID() == 1 || n.ID() == 7 {
			n.Recv(0, machine.TagUser)
			clocks[n.ID()] = n.Clock()
		}
	})
	// Node 7's arrival lags node 1's by exactly 2 extra hops; the
	// second Send's startup also delays it, so compare with that term.
	extra := clocks[7] - clocks[1]
	wantMin := 2 * p.PerHop
	if extra < wantMin {
		t.Fatalf("3-hop message arrived %.9f after 1-hop; want >= %.9f", extra, wantMin)
	}
}

// TestNonPowerOfTwoHops: on non-hypercube sizes every link is 1 hop.
func TestNonPowerOfTwoHops(t *testing.T) {
	m := MustNew(3, machine.NCUBE7())
	if tr(m).hops(0, 2) != 1 || tr(m).hops(1, 1) != 0 {
		t.Fatal("non-pow2 hop model wrong")
	}
}

// TestHopsHamming: power-of-two machines use Hamming distance.
func TestHopsHamming(t *testing.T) {
	m := MustNew(16, machine.Ideal())
	cases := map[[2]int]int{{0, 15}: 4, {5, 6}: 2, {3, 3}: 0, {8, 0}: 1}
	for pq, want := range cases {
		if got := tr(m).hops(pq[0], pq[1]); got != want {
			t.Fatalf("hops%v = %d, want %d", pq, got, want)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	m := MustNew(4, machine.IPSC2())
	if m.P() != 4 || m.Params().Name != "iPSC/2" {
		t.Fatal("machine accessors")
	}
	if m.Node(2) == nil || m.Node(2) != m.Node(2) {
		t.Fatal("Node accessor")
	}
	m.Run(func(n *machine.Node) {
		if n.P() != 4 || n.Machine() != m {
			t.Error("node accessors")
		}
	})
}

// TestSimClockCellsDoNotShareCacheLines: every charge is a store to
// the node's clock from its own OS thread, so two nodes' clocks (and
// the NIC word beside each) must never sit in one 64-byte line, and
// the addresses the Machine cached must survive Reset.
func TestSimClockCellsDoNotShareCacheLines(t *testing.T) {
	const line = 64
	for _, p := range []int{1, 2, 3, 8, 13} {
		m := MustNew(p, machine.NCUBE7())
		tp := tr(m)
		addrs := make([]*float64, p)
		for i := range addrs {
			addrs[i] = tp.ClockAddr(i)
		}
		for i := range addrs {
			for j := range addrs {
				if i == j {
					continue
				}
				ci := uintptr(unsafe.Pointer(addrs[i]))
				for _, w := range []*float64{addrs[j], &tp.cells[j].nicFree} {
					d := int64(ci) - int64(uintptr(unsafe.Pointer(w)))
					if d < 0 {
						d = -d
					}
					if d < line {
						t.Fatalf("P=%d: clock of node %d is %d bytes from a word of node %d", p, i, d, j)
					}
				}
			}
		}
		m.Run(func(n *machine.Node) {
			n.ChargeFlops(n.ID() + 1)
			n.Barrier()
		})
		if *addrs[p-1] == 0 || *addrs[p-1] != m.Node(p-1).Clock() {
			t.Fatalf("P=%d: cached address reads %g, Clock() %g", p, *addrs[p-1], m.Node(p-1).Clock())
		}
		m.Reset()
		for i := range addrs {
			if tp.ClockAddr(i) != addrs[i] {
				t.Fatalf("P=%d: ClockAddr(%d) moved across Reset", p, i)
			}
			if *addrs[i] != 0 || tp.cells[i].nicFree != 0 {
				t.Fatalf("P=%d: Reset left node %d at clock %g nic %g", p, i, *addrs[i], tp.cells[i].nicFree)
			}
		}
	}
}
