package wallclock

import (
	"testing"
	"time"

	"kali/internal/machine"
)

// TestWaitAnyCompletionOrder: the wall-clock drain must complete
// whichever peer's message physically arrives first.  Node 1 only
// sends after node 0 has consumed node 2's message, so a fixed-order
// drain (receive from 1, then 2) would deadlock here; WaitAny
// returning node 2's request first is what breaks the cycle.
func TestWaitAnyCompletionOrder(t *testing.T) {
	m := MustNew(3, machine.Ideal())
	gate := make(chan struct{})
	firstIdx := -1
	m.Run(func(n *machine.Node) {
		switch n.ID() {
		case 0:
			reqs := []machine.Request{{From: 1, Tag: machine.TagUser}, {From: 2, Tag: machine.TagUser}}
			done := make([]bool, 2)
			firsts := []bool{true, true}
			i, _ := n.WaitAny(reqs, done, firsts)
			done[i] = true
			firstIdx = i
			close(gate) // node 2's message consumed; release node 1
			n.WaitAny(reqs, done, firsts)
		case 1:
			<-gate
			n.Send(0, machine.TagUser, nil, 8)
		case 2:
			n.Send(0, machine.TagUser, nil, 8)
		}
	})
	if firstIdx != 1 {
		t.Fatalf("first completed request %d, want 1 (node 2's message arrived first)", firstIdx)
	}
}

// TestDrainOutOfOrderArrival: a WaitAny drain consumes messages
// in completion order on this backend, but each result is indexed by
// its request regardless of arrival order, and every request counts
// one received message.
func TestDrainOutOfOrderArrival(t *testing.T) {
	m := MustNew(4, machine.Ideal())
	var got [3]int
	m.Run(func(n *machine.Node) {
		if n.ID() == 0 {
			reqs := []machine.Request{{From: 1, Tag: machine.TagUser}, {From: 2, Tag: machine.TagUser}, {From: 3, Tag: machine.TagUser}}
			done := make([]bool, len(reqs))
			firsts := []bool{true, true, true}
			for range reqs {
				i, msg := n.WaitAny(reqs, done, firsts)
				done[i] = true
				got[i] = msg.Payload.(int)
			}
			if r := n.Stats().MsgsReceived; r != 3 {
				t.Errorf("MsgsReceived = %d, want 3", r)
			}
			return
		}
		// Stagger sends in reverse node order: 3 first, 1 last.
		time.Sleep(time.Duration(3-n.ID()) * 5 * time.Millisecond)
		n.Send(0, machine.TagUser, 11*n.ID(), 8)
	})
	if got != [3]int{11, 22, 33} {
		t.Fatalf("drain results %v, want [11 22 33] (indexed by request)", got)
	}
}
