// Package lru is a size-bounded least-recently-used map for the
// machine-lifetime schedule caches.
//
// The paper's schedules are worth keeping because they amortize
// (build once, replay every sweep — §3), but a long-lived machine
// executing many distinct loops or redistributions would otherwise
// accumulate schedules without bound.  A small LRU keeps the working
// set (the loops of the current solver phase) while letting dead
// schedules go; eviction counts are surfaced in reports so a
// thrashing cache is visible rather than silent.
//
// The cache is not synchronized: single-goroutine users (the per-node
// forall engine) use it directly, shared users (the darray
// redistribution-plan store) hold their own mutex.
package lru

// Cache maps K to V, keeping at most Cap entries by recency of use.
type Cache[K comparable, V any] struct {
	cap int
	// entries is nil until the first Put: an engine lives as long as one
	// request, and most of its caches never hold anything.
	entries   map[K]*entry[K, V]
	head      *entry[K, V] // most recently used
	tail      *entry[K, V] // least recently used
	evictions int
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New builds a cache bounded to cap entries; cap < 1 panics (an
// unbounded cache is a plain map, and a zero-capacity one would
// silently never hold anything).
func New[K comparable, V any](cap int) *Cache[K, V] {
	if cap < 1 {
		panic("lru: capacity must be at least 1")
	}
	return &Cache[K, V]{cap: cap}
}

// Get returns the value under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if e, ok := c.entries[k]; ok {
		c.moveToFront(e)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates k, marking it most recently used and
// evicting the least recently used entry if the cache is over
// capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	if e, ok := c.entries[k]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: k, val: v}
	if c.entries == nil {
		c.entries = map[K]*entry[K, V]{}
	}
	c.entries[k] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions++
	}
}

// Len returns the number of entries currently held.
func (c *Cache[K, V]) Len() int { return len(c.entries) }

// Evictions returns how many entries have been evicted for capacity
// since creation (or the last Reset).
func (c *Cache[K, V]) Evictions() int { return c.evictions }

// Reset drops all entries and zeroes the eviction counter.
func (c *Cache[K, V]) Reset() {
	c.entries = nil
	c.head, c.tail = nil, nil
	c.evictions = 0
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
