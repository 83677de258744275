package machine_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"kali/internal/alloctest"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
)

// The Transport contract, checked once over both backends.  What only
// one backend promises (the simulator's clock rules, the wall
// backend's queues and waiter) stays in that backend's tests.

type backend struct {
	name string
	new  func(p int, params machine.Params) (*machine.Machine, error)
}

// must builds a p-node machine of the backend.
func (b backend) must(t *testing.T, p int) *machine.Machine {
	m, err := b.new(p, machine.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// eachBackend runs f as a subtest per backend.
func eachBackend(t *testing.T, f func(t *testing.T, b backend)) {
	for _, b := range []backend{{"sim", sim.New}, {"wall", wallclock.New}} {
		t.Run(b.name, func(t *testing.T) { f(t, b) })
	}
}

func TestBackendName(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		if got := b.must(t, 2).Backend(); got != b.name {
			t.Fatalf("Backend() = %q, want %s", got, b.name)
		}
	})
}

func TestNewErrors(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		for _, p := range []int{0, -3} {
			if _, err := b.new(p, machine.Ideal()); err == nil {
				t.Errorf("expected error for %d nodes", p)
			}
		}
	})
}

// TestClockAddrNilExactlyOnWall: a virtual clock has an address, and
// the wall backend, whose time is not modeled, has none.
func TestClockAddrNilExactlyOnWall(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 3)
		for i := 0; i < m.P(); i++ {
			if got := m.Transport().ClockAddr(i) == nil; got != (b.name == "wall") {
				t.Errorf("ClockAddr(%d) nil = %v on %s", i, got, b.name)
			}
		}
	})
}

func TestRunSPMD(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 8)
		var total int64
		m.Run(func(n *machine.Node) {
			atomic.AddInt64(&total, int64(n.ID()))
		})
		if total != 28 {
			t.Fatalf("all nodes should run exactly once; sum = %d", total)
		}
	})
}

func TestSendRecvDelivers(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 2)
		m.Run(func(n *machine.Node) {
			if n.ID() == 0 {
				n.Send(1, machine.TagUser, []float64{1, 2, 3}, 24)
			} else {
				msg := n.Recv(0, machine.TagUser)
				data := msg.Payload.([]float64)
				if len(data) != 3 || data[2] != 3 {
					t.Errorf("payload corrupted: %v", data)
				}
				if msg.Bytes != 24 || msg.From != 0 {
					t.Errorf("metadata wrong: %+v", msg)
				}
			}
		})
	})
}

// TestFusedContinuationCountsBytesOnly: a fused message's continuation
// section (first false) adds its bytes to BytesSent and FusedBytesSent
// but is no new message on either side.
func TestFusedContinuationCountsBytesOnly(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 2)
		m.Run(func(n *machine.Node) {
			if n.ID() == 0 {
				n.ISend(1, machine.FusedTag(0), nil, 16, true)
				n.ISend(1, machine.FusedTag(1), nil, 8, false)
				return
			}
			reqs := []machine.Request{{From: 0, Tag: machine.FusedTag(0)}, {From: 0, Tag: machine.FusedTag(1)}}
			done, firsts := make([]bool, 2), []bool{true, false}
			for range reqs {
				i, msg := n.WaitAny(reqs, done, firsts)
				if msg.Tag != reqs[i].Tag {
					t.Errorf("request %d completed with tag %d", i, msg.Tag)
				}
				done[i] = true
			}
		})
		want := machine.Stats{MsgsSent: 1, BytesSent: 24, MsgsReceived: 1, FusedMsgsSent: 1, FusedBytesSent: 24}
		if got := m.TotalStats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	})
}

// TestRecvAllocationFree: a warm Recv allocates nothing on either
// backend.  Recv passes its one request through the Transport as
// slices of the Node's own arrays; slices of stack arrays would escape
// to the heap on every call.  Every message is queued before the count
// starts, so no Recv blocks: a wait that parks a thread can allocate in
// the runtime, which says nothing about Recv.
func TestRecvAllocationFree(t *testing.T) {
	const warm, reps = 8, 100
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 2)
		m.Run(func(n *machine.Node) {
			if n.ID() == 1 {
				for i := 0; i < warm+reps; i++ {
					n.Send(0, machine.TagUser, nil, 8)
				}
				n.Send(0, machine.TagUser+1, nil, 0)
				return
			}
			n.Recv(1, machine.TagUser+1) // sent last, so everything is queued
			var meter alloctest.Meter
			meter.Enter()
			for i := 0; i < warm; i++ {
				n.Recv(1, machine.TagUser)
			}
			meter.Mark()
			for i := 0; i < reps; i++ {
				n.Recv(1, machine.TagUser)
			}
			if got := meter.Leave(); got != 0 {
				t.Errorf("%d mallocs over %d warm receives, want 0", got, reps)
			}
		})
	})
}

func TestAllReduceOps(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 4)
		sums := make([]float64, 4)
		maxs := make([]float64, 4)
		mins := make([]float64, 4)
		ands := make([]float64, 4)
		m.Run(func(n *machine.Node) {
			v := float64(n.ID() + 1) // 1,2,3,4
			sums[n.ID()] = n.AllReduce(v, "sum")
			maxs[n.ID()] = n.AllReduce(v, "max")
			mins[n.ID()] = n.AllReduce(v, "min")
			b := 1.0
			if n.ID() == 2 {
				b = 0
			}
			ands[n.ID()] = n.AllReduce(b, "and")
		})
		for id := 0; id < 4; id++ {
			if sums[id] != 10 || maxs[id] != 4 || mins[id] != 1 || ands[id] != 0 {
				t.Fatalf("node %d: sum=%g max=%g min=%g and=%g", id, sums[id], maxs[id], mins[id], ands[id])
			}
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	eachBackend(t, func(t *testing.T, b backend) {
		m := b.must(t, 3)
		m.Run(func(n *machine.Node) {
			for i := 0; i < 50; i++ {
				n.Barrier()
			}
		})
		// Completing without deadlock is the assertion.
	})
}

// runWithin runs prog on m and returns the value Run panicked with (nil
// if none), failing the test if Run has not returned within d, so a
// wait that Poison misses fails the suite instead of hanging it.
func runWithin(t *testing.T, d time.Duration, m *machine.Machine, prog func(*machine.Node)) any {
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		m.Run(prog)
	}()
	select {
	case r := <-got:
		return r
	case <-time.After(d):
		t.Fatalf("Run still blocked after %v", d)
		return nil
	}
}

// TestRunPropagatesPanic: a node's panic releases peers blocked in
// every kind of wait, Run names that node rather than a released peer
// (all of which have lower ids), and after Reset the machine runs
// again.
func TestRunPropagatesPanic(t *testing.T) {
	blockers := map[string]func(n *machine.Node){
		"barrier": func(n *machine.Node) { n.Barrier() },
		"recv":    func(n *machine.Node) { n.Recv(3, machine.TagUser) },
		"waitany": func(n *machine.Node) {
			n.WaitAny([]machine.Request{{From: 3, Tag: machine.TagUser}}, []bool{false}, []bool{true})
		},
		"allreduce": func(n *machine.Node) { n.AllReduce(1, "sum") },
	}
	eachBackend(t, func(t *testing.T, b backend) {
		for name, block := range blockers {
			t.Run(name, func(t *testing.T) {
				m := b.must(t, 4)
				r := runWithin(t, 10*time.Second, m, func(n *machine.Node) {
					if n.ID() == 3 {
						time.Sleep(10 * time.Millisecond) // let the peers block
						panic("boom")
					}
					block(n)
				})
				if got := fmt.Sprint(r); got != "machine: node 3 panicked: boom" {
					t.Fatalf("Run panicked with %q, want node 3's boom", got)
				}
				m.Reset()
				sum := 0.0
				if r := runWithin(t, 10*time.Second, m, func(n *machine.Node) {
					if n.ID() == 3 {
						n.Send(0, machine.TagUser, nil, 8)
					} else if n.ID() == 0 {
						n.Recv(3, machine.TagUser)
					}
					n.Barrier()
					if s := n.AllReduce(float64(n.ID()+1), "sum"); n.ID() == 0 {
						sum = s
					}
				}); r != nil || sum != 10 {
					t.Fatalf("after Reset: panic %v, AllReduce = %g, want none and 10", r, sum)
				}
			})
		}
	})
}
