package wallclock

import (
	"testing"

	"kali/internal/machine"
)

func TestRecvMatchesTagOutOfOrder(t *testing.T) {
	// The receiver asks for the second tag first: the queue must scan
	// past the non-matching message without consuming it.
	m := MustNew(2, machine.Ideal())
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			n.Send(1, machine.TagUser, "first", 1)
			n.Send(1, machine.TagUser+1, "second", 1)
		} else {
			if got := n.Recv(0, machine.TagUser+1).Payload.(string); got != "second" {
				t.Errorf("tag+1: got %q", got)
			}
			if got := n.Recv(0, machine.TagUser).Payload.(string); got != "first" {
				t.Errorf("tag: got %q", got)
			}
		}
	})
}

func TestPairOrderPreserved(t *testing.T) {
	m := MustNew(2, machine.Ideal())
	const k = 100
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			for i := 0; i < k; i++ {
				n.Send(1, machine.TagUser, i, 8)
			}
		} else {
			for i := 0; i < k; i++ {
				if got := n.Recv(0, machine.TagUser).Payload.(int); got != i {
					t.Fatalf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestManySendsDoNotBlock(t *testing.T) {
	// Queues are unbounded: a sender can enqueue far more messages
	// than any fixed mailbox capacity before the receiver starts.
	m := MustNew(2, machine.Ideal())
	const k = 5000
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			for i := 0; i < k; i++ {
				n.Send(1, machine.TagUser, nil, 1)
			}
			n.Barrier()
		} else {
			n.Barrier() // receive nothing until all sends are done
			for i := 0; i < k; i++ {
				n.Recv(0, machine.TagUser)
			}
		}
	})
}

func TestChargeAndAdvanceAreNoOps(t *testing.T) {
	m := MustNew(1, machine.NCUBE7())
	m.Run(func(n *machine.Node) {
		n.Charge(machine.Cost{Flops: 1e6, MemRefs: 1e6, Calls: 1e6})
		n.ChargeSearch(1024)
		n.Advance(0) // zero is fine; modeled time is ignored anyway
		st := n.Stats()
		if st.FlopCount != 1e6 {
			t.Errorf("flops must still be counted: %d", st.FlopCount)
		}
	})
	// A machine that just did "a million flops" in modeled terms must
	// report real elapsed time (tiny), not cost-model time (~10 s on
	// the NCUBE model).
	if m.MaxClock() > 1.0 {
		t.Fatalf("modeled charges leaked into wall-clock time: %g s", m.MaxClock())
	}
}

func TestElapsedIsRealTime(t *testing.T) {
	m := MustNew(2, machine.Ideal())
	m.Run(func(n *machine.Node) {
		n.Barrier()
	})
	e := m.MaxClock()
	if e <= 0 {
		t.Fatalf("elapsed must be positive real time, got %g", e)
	}
	if e > 10 {
		t.Fatalf("elapsed implausibly large: %g s", e)
	}
}

func TestPhaseTimersMeasure(t *testing.T) {
	m := MustNew(1, machine.Ideal())
	m.Run(func(n *machine.Node) {
		n.StartPhase("work")
		for i := 0; i < 1000; i++ {
			n.Charge(machine.Cost{Flops: 1})
		}
		n.StopPhase("work")
	})
	if m.MaxPhase("work") < 0 {
		t.Fatal("phase time must be non-negative")
	}
}

func TestResetReusable(t *testing.T) {
	m := MustNew(2, machine.Ideal())
	for round := 0; round < 3; round++ {
		m.Run(func(n *machine.Node) {
			if n.ID() == 0 {
				n.Send(1, machine.TagUser, round, 8)
			} else {
				if got := n.Recv(0, machine.TagUser).Payload.(int); got != round {
					t.Errorf("round %d: got %d", round, got)
				}
			}
		})
		m.Reset()
	}
}

func TestStatsMatchSim(t *testing.T) {
	// The same program must produce identical event counts on both
	// backends; only the clocks differ.
	prog := func(n *machine.Node) {
		if n.ID() == 0 {
			n.Send(1, machine.TagUser, nil, 100)
			n.Send(1, machine.TagRedist, nil, 50)
		} else {
			n.Recv(0, machine.TagUser)
			n.Recv(0, machine.TagRedist)
		}
		n.Barrier()
	}
	m := MustNew(2, machine.Ideal())
	m.Run(prog)
	st := m.TotalStats()
	want := machine.Stats{MsgsSent: 2, BytesSent: 150, MsgsReceived: 2,
		RedistMsgsSent: 1, RedistBytesSent: 50}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}
