package wallclock

import (
	"sync"

	"kali/internal/machine"
)

// queue is an unbounded FIFO for one ordered sender→receiver pair: a
// mutex around a slice, with no waiting of its own — the receiver
// blocks on its doorbell and polls with tryPop.  The backing array is
// reused once the queue drains (head catches up with the tail), so
// steady-state schedule replay — the same message pattern every round
// — allocates nothing here after the first rounds establish the
// high-water mark.
type queue struct {
	mu    sync.Mutex
	items []machine.Message
	head  int
}

func (q *queue) push(msg machine.Message) {
	q.mu.Lock()
	q.items = append(q.items, msg)
	q.mu.Unlock()
}

// tryPop removes and returns the first queued message with the given
// tag, if one is present right now.  Tags on one pair almost always
// arrive in request order, but a mismatch (e.g. redistribution traffic
// queued behind loop traffic) is handled by scanning past non-matching
// messages without consuming them.
func (q *queue) tryPop(tag machine.Tag) (machine.Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].Tag != tag {
			continue
		}
		msg := q.items[i]
		if i == q.head {
			q.items[q.head] = machine.Message{} // drop payload reference
			q.head++
		} else {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = machine.Message{}
			q.items = q.items[:len(q.items)-1]
		}
		if q.head == len(q.items) {
			// Drained: rewind so the backing array is reused.
			q.items = q.items[:0]
			q.head = 0
		}
		return msg, true
	}
	return machine.Message{}, false
}

func (q *queue) reset() {
	q.mu.Lock()
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
	q.mu.Unlock()
}
