package forall

import (
	"sync"
	"sync/atomic"

	"kali/internal/comm"
	"kali/internal/lru"
)

// Cross-tenant schedule sharing — the paper's §3.2 reuse argument
// pushed past one program.  Engine-local sharing (share.go) lets loops
// of one program adopt each other's compile-time schedules; the
// SharedStore here lets concurrently running *programs* do the same:
// many tenants on one machine pool publish blueprints into one
// content-addressed, sharded, singleflight store, keyed by
// (node, shareKey).  Only compile-time schedules participate, for the
// same reason as engine-local sharing — they are pure functions of
// loop structure — and that restriction is also what makes the
// singleflight safe: a compile-time build performs no communication,
// so a tenant blocked waiting for another tenant's build can never be
// part of a communication cycle.

// Blueprint is the immutable, serializable structural form of a
// compile-time Schedule: the interior as (row, lo, hi) segments (row 0
// for rank-1 loops), the boundary as an iteration list, plus per-slot
// in/out range records.  A Schedule itself cannot be shared across
// concurrently running engines — it carries mutable replay state
// (receive buffers, pending-request slots) — so the store holds
// blueprints and each adopting engine instantiates fresh mutable state
// around one (Engine.instantiate).  The same representation is what
// schedule persistence writes to disk.
type Blueprint struct {
	Rank         int
	ExecLocal    [][3]int
	ExecNonlocal [][2]int
	Arrays       []SlotPlan
}

// SlotPlan is one structural array slot of a Blueprint: the receive
// and send range records and their element totals.
type SlotPlan struct {
	In       []comm.Range
	InTotal  int
	Out      []comm.Range
	OutTotal int

	// in is In as a searchable in set.  An in set never changes once
	// made, so every schedule instantiated from the blueprint uses this
	// one: its index is built once, by whoever made or loaded the
	// blueprint, before a second engine can see it.
	in *comm.InSet
}

// blueprintOf extracts the immutable structure of a built compile-time
// schedule.  The in set is shared as it is; the out records are
// copied.
func blueprintOf(s *Schedule) *Blueprint {
	bp := &Blueprint{Rank: s.rank}
	if len(s.execLocal) > 0 {
		bp.ExecLocal = make([][3]int, len(s.execLocal))
		for k, sg := range s.execLocal {
			bp.ExecLocal[k] = [3]int{sg.i, sg.lo, sg.hi}
		}
	}
	bp.ExecNonlocal = pairsOf(s.execNonlocal)
	for _, as := range s.arrays {
		bp.Arrays = append(bp.Arrays, SlotPlan{
			In:       as.in.Ranges,
			InTotal:  as.in.Total,
			in:       as.in,
			Out:      append([]comm.Range(nil), as.out.Ranges...),
			OutTotal: as.out.Total,
		})
	}
	return bp
}

func pairsOf(its []iteration) [][2]int {
	if len(its) == 0 {
		return nil
	}
	out := make([][2]int, len(its))
	for k, it := range its {
		out[k] = [2]int{it.i, it.j}
	}
	return out
}

func itersOf(pairs [][2]int) []iteration {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]iteration, len(pairs))
	for k, p := range pairs {
		out[k] = iteration{i: p[0], j: p[1]}
	}
	return out
}

// instantiate builds a fresh Schedule around a shared blueprint: new
// receive buffers, new pending-request slots, a new sid — everything
// mutable is private to this engine; the in set is the blueprint's own
// and the out records are copied.  The result is indistinguishable
// from a locally built compile-time schedule.
func (e *Engine) instantiate(bp *Blueprint) *Schedule {
	s := &Schedule{
		rank:         bp.Rank,
		kind:         BuildCompileTime,
		execLocal:    make([]segment, len(bp.ExecLocal)),
		execNonlocal: itersOf(bp.ExecNonlocal),
	}
	for k, t := range bp.ExecLocal {
		s.execLocal[k] = segment{i: t[0], lo: t[1], hi: t[2]}
	}
	s.nLocal = segIters(s.execLocal)
	for _, sp := range bp.Arrays {
		as := &arraySched{
			in:  sp.in,
			out: &comm.OutSet{Ranges: append([]comm.Range(nil), sp.Out...), Total: sp.OutTotal},
		}
		as.buf = make([]float64, sp.InTotal)
		s.arrays = append(s.arrays, as)
	}
	e.finalizePeers(s)
	return s
}

// storeShards fixes the lock striping of a SharedStore.  Shard choice
// is keyFP mod storeShards, so tenants building different shapes (or
// the same shape on different nodes, which differ in storeKey but
// usually in shard too) rarely contend on one mutex.
const storeShards = 16

// storeKey identifies one blueprint: schedules are per-node (each node
// holds its own slice of the iteration space), so the node id is part
// of the key alongside the structural shareKey.
type storeKey struct {
	node int
	key  shareKey
}

// inflight is one in-progress build other tenants can wait on: done is
// closed when the builder finishes, with bp left nil if the build
// failed (waiters then retry, racing to become the builder).
type inflight struct {
	done chan struct{}
	bp   *Blueprint
}

type storeShard struct {
	mu       sync.Mutex
	lru      *lru.Cache[storeKey, *Blueprint]
	building map[storeKey]*inflight
}

// SharedStore is the cross-tenant content-addressed schedule store: a
// sharded, LRU-bounded map from (node, structural key) to Blueprint,
// with singleflight build coalescing and optional disk persistence.
// All methods are safe for concurrent use by any number of tenants.
type SharedStore struct {
	dir    string
	shards [storeShards]storeShard

	hits     atomic.Int64
	builds   atomic.Int64
	diskHits atomic.Int64
	waits    atomic.Int64
}

// DefaultStoreCap is the blueprint capacity used when NewSharedStore
// is given a nonpositive one.
const DefaultStoreCap = 4096

// NewSharedStore creates a store bounded to roughly capacity
// blueprints (split evenly across shards; <= 0 means DefaultStoreCap).
// A nonempty dir enables schedule persistence: built blueprints are
// written there, and misses consult the directory before building, so
// a warm start in a fresh process skips building entirely.
func NewSharedStore(capacity int, dir string) *SharedStore {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	per := (capacity + storeShards - 1) / storeShards
	s := &SharedStore{dir: dir}
	for i := range s.shards {
		s.shards[i].lru = lru.New[storeKey, *Blueprint](per)
		s.shards[i].building = map[storeKey]*inflight{}
	}
	return s
}

// Dir returns the persistence directory ("" when persistence is off).
func (s *SharedStore) Dir() string { return s.dir }

// getOrBuild returns the blueprint for (node, key), building it with
// build exactly once machine-wide however many tenants ask
// concurrently: the first caller becomes the builder, later callers
// block on its inflight entry and adopt the result.  hit reports
// whether the caller avoided building (memory hit, disk hit, or
// coalesced wait).  If the builder panics, its waiters retry and race
// to build; the panic propagates to the builder's own node.
func (s *SharedStore) getOrBuild(node int, key shareKey, build func() *Blueprint) (bp *Blueprint, hit bool) {
	fp := key.fingerprint()
	sh := &s.shards[fp%storeShards]
	k := storeKey{node: node, key: key}
	for {
		sh.mu.Lock()
		if bp, ok := sh.lru.Get(k); ok {
			sh.mu.Unlock()
			s.hits.Add(1)
			return bp, true
		}
		if fl, ok := sh.building[k]; ok {
			sh.mu.Unlock()
			<-fl.done
			if fl.bp != nil {
				s.hits.Add(1)
				s.waits.Add(1)
				return fl.bp, true
			}
			continue // builder failed; race to take over
		}
		fl := &inflight{done: make(chan struct{})}
		sh.building[k] = fl
		sh.mu.Unlock()

		fromDisk := false
		func() {
			// Publish whatever we got (possibly nil, on a build panic)
			// even if build unwinds, so waiters never hang.
			defer func() {
				sh.mu.Lock()
				delete(sh.building, k)
				if bp != nil {
					sh.lru.Put(k, bp)
				}
				sh.mu.Unlock()
				fl.bp = bp
				close(fl.done)
			}()
			if s.dir != "" {
				bp = s.loadDisk(node, fp)
				fromDisk = bp != nil
			}
			if bp == nil {
				bp = build()
				if bp != nil && s.dir != "" {
					s.saveDisk(node, fp, bp)
				}
			}
		}()
		if fromDisk {
			s.diskHits.Add(1)
			return bp, true
		}
		s.builds.Add(1)
		return bp, false
	}
}

// StoreStats is a point-in-time snapshot of a SharedStore.
type StoreStats struct {
	// Hits counts adoptions of an already-present blueprint (including
	// Waits, the subset that blocked on another tenant's in-progress
	// build instead of duplicating it); Builds counts actual builds;
	// DiskHits counts blueprints revived from the persistence
	// directory.
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
