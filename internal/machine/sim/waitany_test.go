package sim

import (
	"sync"
	"testing"

	"kali/internal/machine"
)

// TestWaitAnyCompletesInSliceOrder: the simulator's WaitAny (reached
// through Node.WaitAny) must complete requests in slice order — even when a later request's
// message is already queued, the drain blocks for the earlier one —
// so split-phase drains replay the exact clock sequence of the
// phase-synchronous executor.
func TestWaitAnyCompletesInSliceOrder(t *testing.T) {
	m := MustNew(3, machine.Ideal())
	var sent2 sync.WaitGroup
	sent2.Add(1)
	release1 := make(chan struct{})
	var order [2]int
	m.Run(func(n *machine.Node) {
		switch n.ID() {
		case 0:
			// Node 2's message is physically enqueued before the drain
			// starts; node 1's arrives only after the drain is underway.
			sent2.Wait()
			close(release1)
			reqs := []machine.Request{{From: 1, Tag: machine.TagUser}, {From: 2, Tag: machine.TagUser}}
			done := make([]bool, 2)
			firsts := []bool{true, true}
			for k := 0; k < 2; k++ {
				i, _ := n.WaitAny(reqs, done, firsts)
				done[i] = true
				order[k] = i
			}
		case 1:
			<-release1
			n.Send(0, machine.TagUser, nil, 8)
		case 2:
			n.Send(0, machine.TagUser, nil, 8)
			sent2.Done()
		}
	})
	if order != [2]int{0, 1} {
		t.Fatalf("sim WaitAny completion order %v, want [0 1] (slice order)", order)
	}
}
