package forall

import (
	"sync"
	"sync/atomic"

	"kali/internal/lru"
)

// The content-addressed schedule store — the paper's §3.2 reuse
// argument pushed past one loop name.  One type serves two scopes: an
// engine left without a Store creates a private one, so loops of one
// program adopt each other's compile-time schedules; a server hands
// one store to every engine, so concurrently running *programs* do the
// same, many tenants on one machine pool publishing plans into one
// content-addressed, sharded, singleflight store, keyed by
// (node, shareKey).  Only compile-time schedules participate, because
// they are pure functions of loop structure (share.go), and that
// restriction is also what makes the singleflight safe: a compile-time
// build performs no communication, so a tenant blocked waiting for
// another tenant's build can never be part of a communication cycle.
//
// The store holds the same plan type every engine replays.  A plan is
// immutable once built (its in sets' search indexes included), so an
// adopting engine takes it by pointer and allocates only what replay
// mutates — its receive buffers and its window plan
// (Engine.instantiate).  persist.go alone knows the on-disk form.

// storeShards fixes the lock striping of a SharedStore.  Shard choice
// is keyFP mod storeShards, so tenants building different shapes (or
// the same shape on different nodes, which differ in storeKey but
// usually in shard too) rarely contend on one mutex.
const storeShards = 16

// storeKey identifies one plan: schedules are per-node (each node
// holds its own slice of the iteration space), so the node id is part
// of the key alongside the structural shareKey.
type storeKey struct {
	node int
	key  shareKey
}

// inflight is one in-progress build other tenants can wait on: done is
// closed when the builder finishes, with p left nil if the build
// failed (waiters then retry, racing to become the builder).
type inflight struct {
	done chan struct{}
	p    *plan
}

// storeShard holds its LRU by value and makes its building map on the
// first miss, so that an engine's private store costs one allocation.
type storeShard struct {
	mu       sync.Mutex
	lru      lru.Cache[storeKey, *plan]
	building map[storeKey]*inflight
}

// SharedStore is the content-addressed schedule store, private to one
// engine or shared by many: a sharded, LRU-bounded map from
// (node, structural key) to plan, with singleflight build coalescing
// and optional disk persistence.  All methods are safe for concurrent
// use by any number of tenants.
type SharedStore struct {
	dir    string
	shards [storeShards]storeShard

	hits     atomic.Int64
	builds   atomic.Int64
	diskHits atomic.Int64
	waits    atomic.Int64
}

// DefaultStoreCap is the plan capacity used when NewSharedStore
// is given a nonpositive one.
const DefaultStoreCap = 4096

// NewSharedStore creates a store bounded to roughly capacity plans
// (split evenly across shards; <= 0 means DefaultStoreCap).  A nonempty
// dir enables schedule persistence: built plans are
// written there, and misses consult the directory before building, so
// a warm start in a fresh process skips building entirely.
func NewSharedStore(capacity int, dir string) *SharedStore {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	per := (capacity + storeShards - 1) / storeShards
	s := &SharedStore{dir: dir}
	for i := range s.shards {
		s.shards[i].lru = *lru.New[storeKey, *plan](per)
	}
	return s
}

// getOrBuild returns the plan for (node, key), building it with
// build exactly once machine-wide however many tenants ask
// concurrently: the first caller becomes the builder, later callers
// block on its inflight entry and adopt the result.  hit reports
// whether the caller avoided building (memory hit, disk hit, or
// coalesced wait).  If the builder panics, its waiters retry and race
// to build; the panic propagates to the builder's own node.
func (s *SharedStore) getOrBuild(node int, key shareKey, build func() *plan) (p *plan, hit bool) {
	fp := key.fingerprint()
	sh := &s.shards[fp%storeShards]
	k := storeKey{node: node, key: key}
	for {
		sh.mu.Lock()
		if p, ok := sh.lru.Get(k); ok {
			sh.mu.Unlock()
			s.hits.Add(1)
			return p, true
		}
		if fl, ok := sh.building[k]; ok {
			sh.mu.Unlock()
			<-fl.done
			if fl.p != nil {
				s.hits.Add(1)
				s.waits.Add(1)
				return fl.p, true
			}
			continue // builder failed; race to take over
		}
		fl := &inflight{done: make(chan struct{})}
		if sh.building == nil {
			sh.building = map[storeKey]*inflight{}
		}
		sh.building[k] = fl
		sh.mu.Unlock()

		fromDisk := false
		func() {
			// Publish whatever we got (possibly nil, on a build panic)
			// even if build unwinds, so waiters never hang.
			defer func() {
				sh.mu.Lock()
				delete(sh.building, k)
				if p != nil {
					sh.lru.Put(k, p)
				}
				sh.mu.Unlock()
				fl.p = p
				close(fl.done)
			}()
			if s.dir != "" {
				p = s.loadDisk(node, fp)
				fromDisk = p != nil
			}
			if p == nil {
				p = build()
				if p != nil && s.dir != "" {
					s.saveDisk(node, fp, p)
				}
			}
		}()
		if fromDisk {
			s.diskHits.Add(1)
			return p, true
		}
		s.builds.Add(1)
		return p, false
	}
}

// StoreStats is a point-in-time snapshot of a SharedStore.
type StoreStats struct {
	// Hits counts adoptions of an already-present plan (including
	// Waits, the subset that blocked on another tenant's in-progress
	// build instead of duplicating it); Builds counts actual builds;
	// DiskHits counts plans revived from the persistence directory.
	Hits     int64
	Builds   int64
	DiskHits int64
	Waits    int64
	// Entries/Evictions describe the bounded in-memory store.
	Entries   int
	Evictions int
}

// Stats snapshots the store counters; safe to call concurrently with
// tenant traffic.
func (s *SharedStore) Stats() StoreStats {
	st := StoreStats{
		Hits:     s.hits.Load(),
		Builds:   s.builds.Load(),
		DiskHits: s.diskHits.Load(),
		Waits:    s.waits.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += sh.lru.Len()
		st.Evictions += sh.lru.Evictions()
		sh.mu.Unlock()
	}
	return st
}
