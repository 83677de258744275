package wallclock

import (
	"sync"
	"sync/atomic"
	"time"

	"kali/internal/machine"
)

// spinFor bounds the polling phase of a wait: a small multiple of the
// 30–40 µs it takes to wake a parked, thread-pinned node.  Shorter
// than that wake-up is a cliff — with bounds of 2–30 µs a warm halo
// sweep stayed at 35–37 µs, because once one node parks, its late wake
// makes the peer run out its polling and park too, and the ping-pong
// of wake-ups is stable; from 100 µs up the sweep takes 5 µs.  Longer
// buys nothing on the ledger's workloads (20 ms measured the same) and
// costs a bound per wait whenever the awaited peer is not running:
// in a process's first 0.6–0.9 s the kernel may keep both nodes'
// threads on one CPU, however long they poll.  The clock is read every
// spinPolls polls, about a microsecond.
const (
	spinFor   = 300 * time.Microsecond
	spinPolls = 1024
)

// running counts the nodes of every wall machine in the process that
// are inside a Run, and cpus is how many processors they can have
// (the lesser of GOMAXPROCS and the CPU count, as of the latest Begin).
var running, cpus atomic.Int32

// uncrowded reports whether every running wall node can own a
// processor, which is when a wait polls.  The count is the process's,
// not one machine's: a server's pool of wall machines, or tests run in
// parallel, would otherwise all poll for the same processors.
func uncrowded() bool { return running.Load() <= cpus.Load() }

// poisoned is the low bit of the sequence word; bumps count in twos
// above it, so poison survives every later bump.
const poisoned = 1

// waiter is the backend's one blocking primitive: a sequence word that
// bumps advance and a wait that returns once it has moved past a
// snapshot.  Every node's doorbell, Recv (a drain of one request) and
// the barrier (the word is its generation) block here, as
//
//	seq := w.snapshot(); look for work; w.wait(seq)
//
// so a bump after the snapshot makes the wait return at once and no
// wakeup is lost.  wait polls for at most spin, if the process is
// uncrowded, and then parks on cond.  It announces itself in parked
// before re-reading the word, and bump advances the word before
// reading parked: the atomics are sequentially consistent, so either
// the waiter sees the new word or the bump sees the waiter, takes mu
// (held from the announcement until cond.Wait has queued the waiter)
// and broadcasts — and a bump that sees nobody parked may skip the
// mutex.
type waiter struct {
	seq    atomic.Uint64
	parked atomic.Int32  // waiters between announcing and leaving cond.Wait
	spin   time.Duration // polling bound: spinFor, but for tests
	mu     sync.Mutex
	cond   sync.Cond
	parks  int // cond.Wait calls, guarded by mu; for tests
}

func (w *waiter) init() { w.cond.L, w.spin = &w.mu, spinFor }

// snapshot returns the word to hand to wait; it panics on a poisoned
// machine, so no drain loops on a dead run.
func (w *waiter) snapshot() uint64 {
	seq := w.seq.Load()
	if seq&poisoned != 0 {
		panic(machine.Poisoned{})
	}
	return seq
}

// wait blocks until the word differs from seq, and panics if what
// moved it was poison.
func (w *waiter) wait(seq uint64) {
	if w.spin > 0 && uncrowded() {
		var start time.Time
		for i := 1; w.seq.Load() == seq; i++ {
			if i%spinPolls != 0 {
				continue
			}
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > w.spin {
				break
			}
		}
	}
	if w.seq.Load() == seq {
		w.mu.Lock()
		w.parked.Add(1)
		for w.seq.Load() == seq {
			w.parks++
			w.cond.Wait()
		}
		w.parked.Add(-1)
		w.mu.Unlock()
	}
	w.snapshot()
}

// bump advances the word and wakes whoever parked on the old one.
func (w *waiter) bump() {
	w.seq.Add(2)
	w.wake()
}

// poison releases every waiter, spinning or parked; they panic.
func (w *waiter) poison() {
	w.seq.Or(poisoned)
	w.wake()
}

func (w *waiter) wake() {
	if w.parked.Load() != 0 {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}
