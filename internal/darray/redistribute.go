package darray

// Dynamic redistribution: the run-time face of the paper's §2.4 claim
// that distributions are data, not program structure.  A distributed
// array's mapping may change between computation phases (the paper's
// interest in dynamic load balancing and multi-phase algorithms like
// ADI), so Redistribute rebinds an array to a new dist clause in
// place, moving every element to its new owner with one coalesced
// message per processor pair.
//
// The transfer sets are computed in closed form, exactly like the
// compile-time loop analysis of §3.1: out(p→q) is local_old(p) ∩
// local_new(q) in the linearized index space, so both ends of every
// transfer derive the same sets independently and no inspector pass or
// global exchange is needed.  The resulting plan is purely structural
// — a function of (old dist, new dist) only, never of array contents —
// so plans are cached content-addressed by distribution fingerprint
// pair, and ping-pong phase changes (row layout → column layout →
// row layout …) replay without rebuilding or allocating: message
// payloads and the local partitions themselves are recycled through
// comm.BufPool free lists, mirroring the forall executor's
// zero-allocation replay path.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kali/internal/comm"
	"kali/internal/dist"
	"kali/internal/index"
	"kali/internal/lru"
	"kali/internal/machine"
)

// PhaseRedistribute is the timing phase redistribution is attributed
// to, alongside the forall engine's "inspector" and "executor".
const PhaseRedistribute = "redistribute"

// redistRun is one bulk copy of a redistribution plan: n elements
// from offset src of one buffer to offset dst of another.
type redistRun struct{ src, dst, n int }

// redistPeer is one communication partner of a redistribution plan:
// processor q, the n elements exchanged with it, and the storage runs
// that pack them into (or unpack them from) the message payload.
type redistPeer struct {
	q    int
	n    int
	runs []redistRun
}

// RedistSchedule is one node's structural plan for moving an array
// between two distributions.  It binds to no particular array — only
// to the (old, new) distribution pair — so one plan is shared by every
// same-shaped remapping on the node and replayed from the
// content-addressed store, each copy resolved to storage offsets.
type RedistSchedule struct {
	keep     []redistRun // old partition → new partition
	keepN    int
	sendTo   []redistPeer // ascending q; old partition → payload
	recvFrom []redistPeer // ascending q; payload → new partition
	newCount int          // local element count under the new dist
	hdr      header       // target-layout header template (name/node blank)
}

// redistKey addresses one node's plan for one distribution pair.  The
// fingerprints cover shape, so structurally different remappings can
// never collide.
type redistKey struct {
	node  int
	oldFP uint64
	newFP uint64
}

// redistPlanCapPerNode bounds the plan store to this many plans per
// node of the machine.  A long-lived machine cycling through many
// distribution pairs (load balancing that reshapes every phase) would
// otherwise grow the store without bound; ping-pong remappings need
// only two plans per node, so the bound keeps every realistic working
// set while counting evictions for the report.
const redistPlanCapPerNode = 16

// redistStore is one machine's plan cache and buffer pool, kept in
// the machine's Scratch so both live exactly as long as the machine (a
// package-global would pin every transient test/bench machine — and
// its peak-demand partitions — forever).  Plans live in a bounded LRU
// (sized by the machine's node count on first use).  Message payloads
// cross nodes (acquired by the sender, released by the receiver), so
// their pool is machine-wide, and every plan reserves its messages in
// it when built.  A partition is taken and returned by the node that
// owns the array, so each node has its own list: the partition it gets
// back is the one it last wrote, still in its own cache (a warm 128²
// transpose ping-pong on 2 vCPUs takes 19 µs so, 26 µs through one
// shared list: BenchmarkRedistributeTranspose), and no other node's
// timing decides whether it finds one.  Replay is allocation-free.
type redistStore struct {
	mu    sync.Mutex
	plans *lru.Cache[redistKey, *RedistSchedule] // created on first use (needs P)
	parts []comm.BufPool                         // per node; created with plans
	pool  comm.BufPool
}

// redistStoreKey addresses the store within Machine.Scratch.
type redistStoreKey struct{}

func newRedistStore() any { return &redistStore{} }

func storeOf(n *machine.Node) *redistStore {
	return n.Machine().Scratch(redistStoreKey{}, newRedistStore).(*redistStore)
}

// PlanEvictions returns how many redistribution plans the machine's
// bounded store has evicted for capacity.
func PlanEvictions(m *machine.Machine) int {
	store := m.Scratch(redistStoreKey{}, newRedistStore).(*redistStore)
	store.mu.Lock()
	defer store.mu.Unlock()
	if store.plans == nil {
		return 0
	}
	return store.plans.Evictions()
}

var (
	redistBuilds atomic.Int64
	redistHits   atomic.Int64
)

// RedistBuilds returns how many redistribution plans have been built
// process-wide (cache misses); RedistHits counts content-addressed
// reuses.  Benchmarks report deltas of these.
func RedistBuilds() int { return int(redistBuilds.Load()) }

// RedistHits returns the process-wide count of redistribution-plan
// cache hits.
func RedistHits() int { return int(redistHits.Load()) }

// ownedLinear returns the set of linearized global indices grid
// processor id stores under d: the cross product of the per-dimension
// Local sets (full range for collapsed dimensions), lowered row-major.
func ownedLinear(d *dist.Dist, id int) index.Set {
	shape := d.Shape()
	gcoord := d.Grid().Coord(id)
	sets := make([]index.Set, len(shape))
	gdim := 0
	for dim := range shape {
		if p := d.Pattern(dim); p != nil {
			sets[dim] = p.Local(gcoord[gdim])
			gdim++
		} else {
			sets[dim] = index.Range(1, shape[dim])
		}
	}
	switch len(shape) {
	case 1:
		return sets[0]
	case 2:
		return index.Linearize2(sets[0], sets[1], shape[1])
	default:
		panic(fmt.Sprintf("darray: redistribution supports rank 1 and 2, got rank %d", len(shape)))
	}
}

// buildRedistSchedule derives the node's plan in closed form.
func buildRedistSchedule(name string, od, nd *dist.Dist, n *machine.Node) *RedistSchedule {
	me := n.ID()
	oldMine := ownedLinear(od, me)
	newMine := ownedLinear(nd, me)
	oh := newHeader(name, od, n)
	nx := oh.shape[len(oh.shape)-1]
	s := &RedistSchedule{newCount: nd.LocalCount(me), hdr: newHeader(name, nd, n)}
	keep := oldMine.Intersect(newMine)
	s.keep = storageRuns(keep, nx, &oh, &s.hdr)
	s.keepN = keep.Len()
	for q := 0; q < n.P(); q++ {
		if q == me {
			continue
		}
		if out := oldMine.Intersect(ownedLinear(nd, q)); !out.Empty() {
			s.sendTo = append(s.sendTo, redistPeer{q: q, n: out.Len(), runs: storageRuns(out, nx, &oh, nil)})
		}
		if in := newMine.Intersect(ownedLinear(od, q)); !in.Empty() {
			s.recvFrom = append(s.recvFrom, redistPeer{q: q, n: in.Len(), runs: storageRuns(in, nx, nil, &s.hdr)})
		}
	}
	s.hdr.name, s.hdr.node = "", nil
	return s
}

// storageRuns resolves copying the linear index set set from layout sh
// to layout dh, rows nx long (a rank-1 array is one row), into storage
// runs; a nil header stands for a payload, holding set densely in
// order.  Within a global row, consecutive owned indices are
// contiguous in every layout (LocalIndex packs densely in increasing
// global order), so each row piece is one run, merged into its
// predecessor when it continues it on both sides.  Offsets come from
// the checked offsetLinear: a nonlocal element panics at build time.
func storageRuns(set index.Set, nx int, sh, dh *header) []redistRun {
	var runs []redistRun
	pos := 0
	for _, iv := range set.Intervals() {
		for g := iv.Lo; g <= iv.Hi; {
			end := rowSegEnd(g, iv.Hi, nx)
			r := redistRun{src: pos, dst: pos, n: end - g + 1}
			if sh != nil {
				r.src = sh.offsetLinear(g)
			}
			if dh != nil {
				r.dst = dh.offsetLinear(g)
			}
			if k := len(runs) - 1; k >= 0 && runs[k].src+runs[k].n == r.src && runs[k].dst+runs[k].n == r.dst {
				runs[k].n += r.n
			} else {
				runs = append(runs, r)
			}
			pos += r.n
			g = end + 1
		}
	}
	return runs
}

// copyRuns replays runs from src into dst.
func copyRuns(dst, src []float64, runs []redistRun) {
	for _, r := range runs {
		copy(dst[r.dst:r.dst+r.n], src[r.src:r.src+r.n])
	}
}

// redistSchedule returns the node's plan for od → nd, building it on
// first use and replaying it from the machine's content-addressed
// store after.
func redistSchedule(store *redistStore, name string, od, nd *dist.Dist, n *machine.Node) *RedistSchedule {
	key := redistKey{node: n.ID(), oldFP: od.Fingerprint(), newFP: nd.Fingerprint()}
	store.mu.Lock()
	if store.plans == nil {
		store.plans = lru.New[redistKey, *RedistSchedule](redistPlanCapPerNode * n.P())
		store.parts = make([]comm.BufPool, n.P())
	}
	if s, ok := store.plans.Get(key); ok {
		store.mu.Unlock()
		redistHits.Add(1)
		n.Charge(machine.Cost{Calls: 1})
		return s
	}
	store.mu.Unlock()
	s := buildRedistSchedule(name, od, nd, n)
	// Symbolic set evaluation: a closed-form intersection per peer pair.
	n.Charge(machine.Cost{Calls: 2 + len(s.sendTo) + len(s.recvFrom)})
	sizes := make([]int, len(s.sendTo))
	for i, p := range s.sendTo {
		sizes[i] = p.n
	}
	store.pool.Reserve(n.ID(), sizes)
	store.mu.Lock()
	store.plans.Put(key, s)
	store.mu.Unlock()
	redistBuilds.Add(1)
	return s
}

// Redistribute rebinds a to the new distribution nd in place: every
// element moves to the processor nd assigns it, and the handle's
// ownership tests, accessors and Dist() answer for the new mapping
// afterwards.  Every node of the machine must call it collectively
// with a structurally equal nd.
//
// The all-to-all is schedule-driven: one coalesced TagRedist message
// per communicating processor pair, packed and unpacked with bulk
// range copies.  Plans are cached by (old, new) fingerprint pair and
// payloads and partitions are pooled, so repeated phase changes replay
// allocation-free; time is charged under PhaseRedistribute.
//
// Redistributing an array changes its distribution fingerprint, which
// is exactly what the forall engine's schedule caches key on — cached
// loop schedules over the old mapping miss instead of replaying stale
// communication patterns.
func Redistribute(a *Array, nd *dist.Dist) {
	od := a.d
	if od.Replicated() || nd.Replicated() {
		panic(fmt.Sprintf("darray: cannot redistribute replicated array %q", a.name))
	}
	if a.Rank() > 2 {
		panic(fmt.Sprintf("darray: redistribution supports rank 1 and 2, got rank %d of %q", a.Rank(), a.name))
	}
	if od.Rank() != nd.Rank() {
		panic(fmt.Sprintf("darray: redistribute %q: rank %d -> %d", a.name, od.Rank(), nd.Rank()))
	}
	for dim := 0; dim < od.Rank(); dim++ {
		if od.Extent(dim) != nd.Extent(dim) {
			panic(fmt.Sprintf("darray: redistribute %q: extent %d -> %d in dim %d",
				a.name, od.Extent(dim), nd.Extent(dim), dim))
		}
	}
	n := a.node
	if nd.Grid().Size() != n.P() {
		panic(fmt.Sprintf("darray: redistribute %q: new grid has %d processors, machine has %d",
			a.name, nd.Grid().Size(), n.P()))
	}
	n.StartPhase(PhaseRedistribute)
	defer n.StopPhase(PhaseRedistribute)
	if od.Fingerprint() == nd.Fingerprint() {
		// Identity remapping: nothing moves.
		n.Charge(machine.Cost{Calls: 1})
		return
	}
	store := storeOf(n)
	s := redistSchedule(store, a.name, od, nd, n)

	// Sends first (non-blocking on the simulated machine): pack each
	// peer's runs from the old partition into a pooled payload.
	for pi := range s.sendTo {
		p := &s.sendTo[pi]
		pb := store.pool.Get(p.n)
		copyRuns(pb.Vals, a.local, p.runs)
		n.Send(p.q, machine.TagRedist, pb, 8*p.n)
	}

	// New partition from the pool; move the elements that stay local
	// while the old storage is still live.
	nh := s.hdr
	nh.name, nh.node, nh.version = a.name, a.node, a.version
	nh.d = nd
	parts := &store.parts[n.ID()]
	npb := parts.Get(s.newCount)
	copyRuns(npb.Vals, a.local, s.keep)
	n.Charge(machine.Cost{MemRefs: 2 * s.keepN})

	oldPB := a.localPB
	a.header = nh
	a.local = npb.Vals
	a.localPB = npb
	if oldPB != nil {
		parts.Put(oldPB)
	}

	// Receives: the mirror formula says exactly who sends what; unpack
	// each payload's runs into the new partition and recycle it.
	// Per-byte message costs at both ends cover the copies.
	for pi := range s.recvFrom {
		p := &s.recvFrom[pi]
		msg := n.Recv(p.q, machine.TagRedist)
		pb, ok := msg.Payload.(*comm.Payload)
		if !ok {
			panic(fmt.Sprintf("darray: redistribute %q: payload from %d is %T, want *comm.Payload",
				a.name, p.q, msg.Payload))
		}
		if len(pb.Vals) != p.n {
			panic(fmt.Sprintf("darray: redistribute %q: payload from %d has %d values, plan expects %d",
				a.name, p.q, len(pb.Vals), p.n))
		}
		copyRuns(a.local, pb.Vals, p.runs)
		store.pool.Put(pb)
	}
}
