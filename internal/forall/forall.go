// Package forall implements Kali's forall loops on the simulated
// distributed-memory machine: the paper's central contribution.
//
// A Loop describes one forall statement: its iteration range, its on
// clause (owner-computes placement), the distributed-array references
// its body makes, and the body itself.  Loop2 is its two-dimensional
// counterpart.  Both lower onto one internal loopCore, so schedule
// acquisition, caching, invalidation and execution are a single
// pipeline parameterized by rank:
//
//  1. Determine exec(p), the iterations this node runs.
//  2. Obtain a communication Schedule: from the per-name cache if the
//     loop has run before and its pattern-driving arrays are unchanged
//     (paper §3.2, "saving them for later loop executions"); else from
//     the content-addressed store if another loop of identical
//     structure — distribution, bounds, read affines, on clause —
//     already built one (§3.2's reuse argument applied across loops);
//     else by compile-time analysis when every subscript is affine
//     (paper §3.1/[3] — per dimension for rank-2 loops, whole lines
//     for a matrix a rank-1 loop reads by its distributed dimension);
//     else by the run-time inspector — a recording pass over the body
//     followed by a Crystal-router exchange that turns each node's in
//     sets into the senders' out sets (paper §3.3, Fig. 6).
//  3. Run the executor: send all messages, run the local iterations,
//     receive all messages, run the nonlocal iterations (Fig. 3),
//     then commit buffered writes (copy-in/copy-out semantics).  The
//     local iterations — the interior — are held and dispatched as
//     row segments: a loop whose body can run a whole segment against
//     raw local rows (Loop.Segment) gets one call per segment, with
//     the locality and owner-computes checks hoisted to the span.  The
//     nonlocal iterations are offered to the same body as runs of
//     consecutive columns, cut from the boundary list on the fly; there
//     the body resolves each read to a local row or a run of the receive
//     buffer and charges every reference's locality test and search.
//
// The executor is vectorized: schedules store per-peer range records,
// message payloads are packed with one bulk copy per contiguous range
// (darray.CopyLinearRange), all of a loop's reads travel in one
// coalesced message per processor pair, and payload buffers, the Env,
// and the write log are pooled — replaying a cached schedule performs
// zero heap allocations.
package forall

import (
	"fmt"
	"hash/fnv"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/lru"
	"kali/internal/machine"
)

// Phase names used for the timing breakdown the paper reports.
const (
	PhaseInspector = "inspector"
	PhaseExecutor  = "executor"
)

// ReadSpec declares one distributed-array reference the body may make
// through Env.Read.  When Affine (rank-1 loops) or Affine2 (rank-2
// loops) is non-nil the subscript has the static affine form and the
// reference is a candidate for compile-time analysis; a nil entry
// marks a data-dependent (indirect) reference that forces the
// run-time inspector.
type ReadSpec struct {
	Array *darray.Array
	// Affine is the rank-1 subscript a*i + c.
	Affine *analysis.Affine
	// Dim is the dimension Affine subscripts when a rank-1 loop reads a
	// rank-2 array; the other subscript may be anything.  The read is
	// analyzed only while the array's layout distributes exactly that
	// dimension, whose lines then move whole.
	Dim int
	// Affine2 is the rank-2 subscript pair (aI*i + cI, aJ*j + cJ); it
	// applies only to Loop2 reads of rank-2 arrays with both dimensions
	// distributed.
	Affine2 *analysis.Affine2
}

// Dep names an array whose *contents* determine the loop's reference
// pattern (the adj array in the paper's Figure 4).  A cached schedule
// is invalidated when any dependency's version changes.
type Dep interface {
	Name() string
	Version() int
}

// Loop is one rank-1 forall statement.
type Loop struct {
	// Name identifies the loop for schedule caching; loops at
	// different source locations must use different names.
	Name string
	// Lo, Hi is the iteration range (inclusive, 1-based).
	Lo, Hi int
	// On is the owner-computes placement array: iteration i runs on
	// the owner of On[OnF(i)].  On must be 1-D and distributed over a
	// 1-D processor grid.
	On *darray.Array
	// OnF is the on-clause subscript f; use analysis.Identity for
	// "on A[i].loc".
	OnF analysis.Affine
	// OnProc, when non-nil, overrides On/OnF and places iteration i on
	// processor OnProc(i) directly ("it is also possible to name the
	// processor directly by indexing into the processor array").
	OnProc func(i int) int
	// Reads declares every Env.Read the body performs.
	Reads []ReadSpec
	// DependsOn lists pattern-driving arrays for cache invalidation.
	DependsOn []Dep
	// Body is the loop body, executed once per iteration.
	Body func(i int, e *Env)
	// Segment, when non-nil, may run a whole run lo..hi of consecutive
	// iterations in one call.  The paper's Figure 3 splits a forall into
	// local and nonlocal iterations precisely so that the local ones need
	// no locality test and no buffer search; a body that addresses the
	// node's local rows directly (darray's Span1/Span2 or Env.ReadSpan1/
	// ReadSpan2 for reads, Env.WriteSpan1/WriteSpan2 for stores) hoists
	// what Body pays per reference to once per span.  The call must be
	// observably identical to the engine's own per-element loop,
	//
	//	for i := lo; i <= hi; i++ { node.ChargeLoopIter(); Body(i, e) }
	//
	// — same values, same cost-model charges in the same order — or
	// return false before any side effect to decline the span, which
	// the engine then runs through Body.  Runs of the interior come with
	// the Env in the local mode, runs of the boundary (after the
	// receives) in the nonlocal mode (Env.Nonlocal), where Read tests
	// every reference's locality and charges the in-set search for the
	// remote ones; ReadSpan1 gives a run's read in either mode as a view
	// and the charges each element makes ahead of its memory reference,
	// and Env.Gather does the same per element for a read whose
	// subscripts are data.  Loops with Enumerate, and the inspector's
	// recording pass, always use Body.
	Segment func(lo, hi int, e *Env) bool
	// Inspect, when non-nil, may record a whole run lo..hi of
	// consecutive iterations in one call of the inspector's recording
	// pass (loops without Enumerate).  It must make the engine's own
	// per-element recording,
	//
	//	for i := lo; i <= hi; i++ { start iteration i; Body(i, e) }
	//
	// with Env.BeginIter ahead of each iteration's references and every
	// Env.Read Body makes there, in Body's order — the engine charges the
	// iteration, each reference check and each list insert, as for
	// Body — or return false before any of these to decline the run,
	// which the engine then records through Body.  What else Body does
	// under the recording pass is free and without effect (its
	// arithmetic, its local reads, its writes), and an Inspect body may
	// leave it out where it cannot fail.
	Inspect func(lo, hi int, e *Env) bool
	// Phase overrides the timing phase the execution is attributed to
	// (default PhaseExecutor).  The paper's measurements time only the
	// computational-core forall; auxiliary loops (the old_a := a copy)
	// use a separate phase so the reported executor column matches.
	Phase string
	// Enumerate selects the Saltz-style executor the paper contrasts
	// with in §5: the inspector explicitly enumerates *every* reference
	// of every nonlocal iteration into a resolved list, which
	// "eliminates the overhead of checking and searching for nonlocal
	// references during the loop execution but requires more storage".
	// It forces the run-time inspector.
	Enumerate bool
}

// Loop2 is a two-dimensional forall over a rank-2 array distributed on
// a rank-2 processor grid — the paper's "multi-dimensional processor
// arrays can be declared similarly" taken at its word:
//
//	forall i in LoI..HiI, j in LoJ..HiJ on A[fI(i), fJ(j)].loc do ... end
//
// Placement is owner-computes on A[OnF2.I(i), OnF2.J(j)]: each on-
// clause subscript is an affine function of its own index variable
// (identity by default), so strided and reflected placements like
// "on A[2*i-1, j+1].loc" stay on the compile-time path.  Reads go
// through the same Env as 1-D loops — aligned accesses via ReadLocal2,
// potentially-nonlocal ones via Read/ReadAt on linearized indices.
// Reads whose per-dimension subscripts are affine (ReadSpec.Affine2)
// get compile-time schedules from the rank-2 closed forms; anything
// else falls back to the run-time inspector.
type Loop2 struct {
	Name               string
	LoI, HiI, LoJ, HiJ int
	// On must be rank-2 with both dimensions distributed over a rank-2
	// grid.
	On *darray.Array
	// OnF2 is the on-clause subscript pair (fI, fJ); the zero value
	// means analysis.Identity2 ("on A[i,j].loc").  Both coefficients
	// must be nonzero otherwise.
	OnF2      analysis.Affine2
	Reads     []ReadSpec
	DependsOn []Dep
	Body      func(i, j int, e *Env)
	// Segment is Loop.Segment for row i, columns jLo..jHi, of the
	// interior or the boundary.
	Segment func(i, jLo, jHi int, e *Env) bool
	Phase   string
	// Enumerate selects the Saltz-style executor for rank-2 loops, the
	// same §5 contrast Loop.Enumerate provides in 1-D: every reference
	// of every nonlocal iteration is resolved into a list (row-major
	// body order), trading schedule storage for executor-time searches.
	// It forces the run-time inspector.
	Enumerate bool
}

// iteration is one loop iteration of either rank; j is unused (zero)
// for rank-1 loops.
type iteration struct{ i, j int }

// segment is a run of consecutive interior iterations: lo..hi of a
// rank-1 loop (i unused, zero), or columns lo..hi of row i of a rank-2
// loop.  A schedule's interior is a list of these rather than one
// iteration per element: the executor dispatches, and a Segment body
// resolves its local rows, once per segment.
type segment struct{ i, lo, hi int }

// rowCol returns the coordinates segments are made of: the iteration's
// row (zero at rank 1) and its index along the row.
func (it iteration) rowCol(rank int) (row, x int) {
	if rank == 2 {
		return it.i, it.j
	}
	return 0, it.i
}

// appendIter extends segs by one iteration, which must follow the
// previous ones in loop order: it joins the last segment when it
// continues that run, else starts a new one.
func appendIter(segs []segment, rank int, it iteration) []segment {
	row, x := it.rowCol(rank)
	if n := len(segs); n > 0 && segs[n-1].i == row && segs[n-1].hi+1 == x {
		segs[n-1].hi = x
		return segs
	}
	return append(segs, segment{i: row, lo: x, hi: x})
}

// segIters returns the number of iterations segs covers.
func segIters(segs []segment) int {
	n := 0
	for _, sg := range segs {
		n += sg.hi - sg.lo + 1
	}
	return n
}

// loopCore is the rank-independent lowering of a Loop or Loop2: the
// single representation the schedule pipeline operates on.  Lowering
// fills a caller-provided value (the Engine's scratch on the top-level
// path) and dispatches the body through l1/l2 rather than a closure,
// so replaying a cached loop allocates nothing.
type loopCore struct {
	name      string
	rank      int
	bounds    [4]int // Lo, Hi, LoJ, HiJ (rank-1: trailing zeros)
	on        *darray.Array
	onF       analysis.Affine  // rank-1 on-clause subscript
	onF2      analysis.Affine2 // rank-2 on-clause subscript pair
	onProc    func(i int) int  // rank-1 direct placement (nil otherwise)
	reads     []ReadSpec
	deps      []Dep
	phase     string
	enumerate bool
	l1        *Loop  // source loop (rank 1)
	l2        *Loop2 // source loop (rank 2)
}

// run invokes the user body for one iteration.
func (c *loopCore) run(it iteration, e *Env) {
	if c.rank == 1 {
		c.l1.Body(it.i, e)
	} else {
		c.l2.Body(it.i, it.j, e)
	}
}

// hasSegment reports whether the loop has a Segment body.
func (c *loopCore) hasSegment() bool {
	if c.rank == 1 {
		return c.l1.Segment != nil
	}
	return c.l2.Segment != nil
}

// runSegment offers one segment, of the interior or the boundary, to
// the loop's Segment body; false means there is none or it declined,
// and the caller runs the segment per element.
func (c *loopCore) runSegment(sg segment, e *Env) bool {
	if c.rank == 1 {
		return c.l1.Segment != nil && c.l1.Segment(sg.lo, sg.hi, e)
	}
	return c.l2.Segment != nil && c.l2.Segment(sg.i, sg.lo, sg.hi, e)
}

// lower fills c with the rank-1 loop's core form.
func (l *Loop) lower(c *loopCore) {
	*c = loopCore{
		name: l.Name, rank: 1,
		bounds: [4]int{l.Lo, l.Hi, 0, 0},
		on:     l.On, onF: l.OnF, onProc: l.OnProc,
		reads: l.Reads, deps: l.DependsOn, phase: l.Phase,
		enumerate: l.Enumerate,
		l1:        l,
	}
}

// lower fills c with the rank-2 loop's core form, normalizing the
// zero-value on clause to identity here rather than by mutating the
// caller's Loop2 (which may be shared across the per-node goroutines).
func (l *Loop2) lower(c *loopCore) {
	onF2 := l.OnF2
	if (onF2 == analysis.Affine2{}) {
		onF2 = analysis.Identity2
	}
	*c = loopCore{
		name: l.Name, rank: 2,
		bounds: [4]int{l.LoI, l.HiI, l.LoJ, l.HiJ},
		on:     l.On, onF2: onF2,
		reads: l.Reads, deps: l.DependsOn, phase: l.Phase,
		enumerate: l.Enumerate,
		l2:        l,
	}
}

// analyzable reports whether compile-time analysis applies: every
// declared read must carry the affine form matching the loop's rank
// over an array whose layout distributes what it subscripts.
func (c *loopCore) analyzable() bool {
	if c.enumerate || c.onProc != nil {
		return false
	}
	for _, r := range c.reads {
		if r.Array.Replicated() {
			return false
		}
		switch c.rank {
		case 1:
			// A rank-2 array is read by lines (ReadSpec.Dim): its layout
			// must distribute that dimension and collapse the other.
			d := r.Array.Dist()
			if r.Affine == nil || r.Affine.A == 0 || r.Array.Rank() > 2 || d.Pattern(r.Dim) == nil ||
				r.Array.Rank() == 2 && d.Pattern(1-r.Dim) != nil {
				return false
			}
		default:
			if r.Affine2 == nil || r.Affine2.I.A == 0 || r.Affine2.J.A == 0 || r.Array.Rank() != 2 {
				return false
			}
			d := r.Array.Dist()
			if d.Grid().Rank() != 2 || d.Pattern(0) == nil || d.Pattern(1) == nil {
				return false
			}
		}
	}
	return true
}

// BuildKind says how a schedule was obtained, for tests and reports.
type BuildKind int

// Schedule provenance values.  BuildShared means the loop did not
// build anything: an existing plan with the same structural key
// (distributions, bounds, read affines, on clause) was adopted from
// the engine's content-addressed store (Engine.Store).
const (
	BuildCached BuildKind = iota
	BuildCompileTime
	BuildInspector
	BuildShared
)

func (k BuildKind) String() string {
	switch k {
	case BuildCached:
		return "cached"
	case BuildCompileTime:
		return "compile-time"
	case BuildInspector:
		return "inspector"
	case BuildShared:
		return "shared"
	default:
		return fmt.Sprintf("BuildKind(%d)", int(k))
	}
}

// peerCount is one precomputed communication partner: processor q and
// the number of elements exchanged with it per execution.  Computing
// these once at build time keeps the replay path allocation-free.
type peerCount struct{ q, n int }

// slot is the communication schedule of one read-array slot: the
// elements this node receives and sends.  It is purely structural —
// which loop array occupies the slot is bound at execution time from
// the loop's reads, which is what lets whole schedules be shared
// between identically-shaped loops over different arrays.
type slot struct {
	in  *comm.InSet
	out *comm.OutSet
	ref refStream
}

// refStream is an inspector plan's record of one slot's remote reads,
// resolved to where the executor finds them: every read the recording
// pass sent to the in set, in body order, with its buffer offset, and
// where each nonlocal iteration's reads begin.  The executor replays it
// by position and confirms each entry's element, so a body that reads
// in another order still reads right, through the search.  It is host
// memory outside the cost model, like the in set's directory: the
// executor still charges the paper's O(log r) search for every remote
// read, and MemBytes does not count it.  Compile-time plans, plans from
// disk and enumerated plans have none.
type refStream struct {
	refs   []remoteRef
	starts []int32 // starts[k]: nonlocal iteration k's first entry in refs; then len(refs)
}

// remoteRef is one remote read: element g, at offset off of the receive
// buffer (while the recording pass runs, off is g's insertion id).
type remoteRef struct {
	g   int
	off int32
}

// enumRef is one resolved reference of a Saltz-style enumerated
// schedule: the value lives either in the communication buffer of
// array slot (Buf >= 0) or locally at global index G (Buf == -1).
type enumRef struct {
	Slot int
	G    int
	Buf  int
}

// plan is what inspecting or analyzing one loop shape on one node
// produces, for loops of any rank: iteration lists, per-slot
// communication sets and the combined peer lists.  It is built once —
// by the analysis, the inspector, or the disk cache — and never
// changes afterwards, so any number of engines, on any number of
// concurrently running machines, read one plan through the pointer.
type plan struct {
	rank int
	// execLocal is the interior (the paper's local_list) as row
	// segments in loop order, nLocal its iteration count; execNonlocal
	// (the nonlocal_list) stays one entry per iteration, as the paper
	// stores it, and the executor cuts its runs when it replays it.
	execLocal    []segment
	nLocal       int
	execNonlocal []iteration
	slots        []slot
	kind         BuildKind
	// sendTo/recvFrom are the combined-message peers: the ascending
	// union of all slots' receivers/senders with total element counts,
	// precomputed so the executor sizes each coalesced message without
	// allocating.
	sendTo   []peerCount
	recvFrom []peerCount
	// enum[k] lists every resolved reference of nonlocal iteration
	// execNonlocal[k], in body order — row-major for rank-2 loops
	// (Loop.Enumerate / Loop2.Enumerate only).
	enum [][]enumRef
}

// Schedule is one loop name's hold on a plan: the plan itself, shared
// by pointer with every other loop of its shape, plus the state
// replaying it mutates.  It carries no binding to the arrays of any
// particular loop, so loops of one name over different arrays replay
// it in turn.
type Schedule struct {
	*plan
	// bufs[k] is slot k's receive buffer, reused by every replay.
	bufs [][]float64
	// window is the drain/send layout of the window holding just this
	// schedule's loop, so replaying a single loop never touches the
	// engine's bounded plan store (which serves windows of two or more
	// loops).
	window *windowPlan
	// sid is the engine-assigned schedule identity, minted once per
	// Schedule; fusion plans key on the window's sid tuple, so a rebuilt
	// (or freshly adopted) schedule can never alias a stale plan.
	sid uint64
}

// Rank returns the loop rank the schedule was built for.
func (s *Schedule) Rank() int { return s.rank }

// LocalIters returns the number of iterations with only local
// references (paper's local_list).
func (s *Schedule) LocalIters() int { return s.nLocal }

// NonlocalIters returns the number of iterations needing communicated
// data (paper's nonlocal_list).
func (s *Schedule) NonlocalIters() int { return len(s.execNonlocal) }

// Kind reports how the schedule was built.
func (s *Schedule) Kind() BuildKind { return s.kind }

// RecvCount returns the total number of elements this node receives
// per execution.
func (s *Schedule) RecvCount() int {
	n := 0
	for _, sl := range s.slots {
		n += sl.in.Total
	}
	return n
}

// MemBytes estimates the schedule's storage: iteration lists (one word
// per index per rank), range records (Figure 5: ~20 bytes each),
// buffers, and — for enumerated schedules — the per-reference list the
// paper's §5 identifies as the storage cost of Saltz's approach.  The
// interior is charged per *iteration* although it is held as segments:
// this is the paper's §5 iteration-list storage model, which the
// benches' storage columns reproduce, not the host's footprint.
func (s *Schedule) MemBytes() int {
	n := 8 * s.rank * (s.nLocal + len(s.execNonlocal))
	for _, sl := range s.slots {
		n += recBytes * (len(sl.in.Ranges) + len(sl.out.Ranges))
		n += 8 * sl.in.Total
	}
	for _, refs := range s.enum {
		n += 12 * len(refs)
	}
	return n
}

// Digest is a fingerprint of the plan s holds: its iteration lists,
// its communication records, its reference streams and its enumerated
// references.  Two ways of building one loop's plan, such as with and
// without an Inspect body, must give the same digest.
func (s *Schedule) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, s.rank, s.execLocal, s.execNonlocal, s.enum)
	for _, sl := range s.slots {
		fmt.Fprint(h, sl.in.Ranges, sl.out.Ranges, sl.ref)
	}
	return h.Sum64()
}

// schedKey identifies one cached schedule.  Keying by (rank, name)
// keeps loops of different ranks in disjoint keyspaces: a rank-1 loop
// literally named "2d:foo" can never collide with a Loop2 named "foo",
// which the old string-prefix scheme allowed.
type schedKey struct {
	rank int
	name string
}

// cacheEntry binds one loop name to its Schedule,
// together with the loop shape the binding was made under.  The shape
// fields guard replay: reusing a schedule under a different placement,
// executor variant, or read pattern would execute the wrong iterations
// or miss communicated elements.  Distribution fingerprints are part
// of the shape (onDist and each readSig's distFP): arrays can be
// *redistributed* in place (darray.Redistribute), and replaying a
// schedule built for the old mapping would ship the wrong elements —
// a correctness bug, not a performance bug — so a fingerprint change
// forces a miss.
type cacheEntry struct {
	s           *Schedule
	bounds      [4]int
	onF         analysis.Affine
	onF2        analysis.Affine2
	onDist      uint64 // fingerprint of the on array's dist (0 for OnProc)
	enumerate   bool
	readSigs    []readSig
	depVersions []int
}

// matches reports whether the entry was recorded for exactly this loop
// shape, including every involved array's current distribution.  It
// allocates nothing (replay hot path; fingerprints are precomputed on
// the Dist).
func (ent *cacheEntry) matches(c *loopCore) bool {
	if ent.bounds != c.bounds || ent.onF != c.onF || ent.onF2 != c.onF2 ||
		ent.enumerate != c.enumerate || len(ent.readSigs) != len(c.reads) {
		return false
	}
	if ent.onDist != onDistOf(c) {
		return false
	}
	for i, r := range c.reads {
		if ent.readSigs[i] != sigOf(r) {
			return false
		}
	}
	return true
}

// onDistOf fingerprints the loop's placement distribution (0 under
// direct OnProc placement, which names processors, not a dist).
func onDistOf(c *loopCore) uint64 {
	if c.on == nil {
		return 0
	}
	return c.on.Dist().Fingerprint()
}

// sharedScheduleCap bounds an engine's private store.  Distinct share
// keys accumulate (every redistribution mints new distribution
// fingerprints), so the store is bounded: the working set of the
// current solver phase stays, dead plans go, and evictions are
// counted so thrashing is visible in reports.
const sharedScheduleCap = 64

// Engine executes forall loops on one node and caches their schedules
// in two tiers: the per-name cache, then the content-addressed Store.
// Its counter accessors (Builds, SharedHits, ...) read plain ints the
// node goroutine writes: call them from that goroutine, or once its
// Machine.Run has returned.  core.Report is their sanctioned reader.
type Engine struct {
	node  *machine.Node
	cache map[schedKey]*cacheEntry
	// NoCache disables schedule reuse — both the per-name cache and the
	// content-addressed store (benchmark ABL1 measures the cost of
	// re-inspecting on every execution).
	NoCache bool
	// ForceInspector disables the compile-time path (ABL3).
	ForceInspector bool
	// Reference runs every loop through the reference executor
	// (reference.go) instead of the production wavefront (fuse.go): the
	// paper's Figure 3 taken literally, one loop at a time.  Both
	// combine all arrays' data for one destination into one message, as
	// the paper's implementation does ("sorting by processor id also
	// allowed us to combine messages between the same two processors,
	// thus saving on the number of messages"), so contents, byte and
	// flop counts are identical and only clocks (and, across fusion
	// windows, envelope counts) differ: the differential oracle.
	Reference bool
	// Store is the content-addressed schedule store (store.go), where
	// compile-time plans are adopted by pointer or built and published;
	// the adopting loop allocates only its receive buffers and window
	// plan.  Set it to share plans across engines (a server's tenants);
	// left nil, the first compile-time build creates a private store,
	// own, whose evictions the engine reports and InvalidateAll drops.
	// Builds of one shape are coalesced store-wide (singleflight),
	// deadlock-free because compile-time builds do not communicate.
	Store *SharedStore
	own   *SharedStore

	lastKind   BuildKind
	builds     int
	sharedHits int
	// interiorIters counts interior iterations executed, segmentIters
	// the subset a loop's Segment body ran (the rest went through Body);
	// boundaryIters and boundarySegIters count the same of the
	// boundary; inspectSegIters counts the iterations a loop's Inspect
	// body recorded.
	interiorIters    int
	segmentIters     int
	boundaryIters    int
	boundarySegIters int
	inspectSegIters  int

	// Fusion state: the bounded store of multi-loop window plans
	// (fuse.go), the schedule-id mint backing its keys, and the window
	// counter tests and benches use to assert fusion actually engaged.
	fusedPlans   *lru.Cache[uint64, *windowPlan]
	sidCounter   uint64
	fusedWindows int

	// Replay scratch, reused across executions so a cached replay
	// allocates nothing: the Env, Run/Run2's sequence of one, and for
	// the loops of one RunSequence call their lowered cores, per-window
	// schedules, accumulated window writes, and per-loop slot bindings.
	// inRun guards it: a Run from inside a loop body panics.
	inRun     bool
	pool      *comm.BufPool // the machine's payload pool (fuse.go)
	envBuf    Env
	one       [1]SeqLoop
	seqCores  []loopCore
	seqScheds []*Schedule
	seqWrites []*darray.Array
	seqSlots  [][]*darray.Array
}

// NewEngine creates the per-node forall engine.
func NewEngine(n *machine.Node) *Engine {
	return &Engine{
		node:       n,
		pool:       poolOf(n.Machine()),
		cache:      map[schedKey]*cacheEntry{},
		fusedPlans: lru.New[uint64, *windowPlan](fusedPlanCap),
	}
}

// Node returns the engine's node.
func (e *Engine) Node() *machine.Node { return e.node }

// LastBuildKind reports how the most recent Run/Run2 obtained its
// schedule.
func (e *Engine) LastBuildKind() BuildKind { return e.lastKind }

// Builds returns how many schedules the engine has actually built
// (compile-time or inspector); cache and shared hits do not count.
func (e *Engine) Builds() int { return e.builds }

// SharedHits returns how many times a loop adopted a plan from the
// content-addressed store instead of building one: built by another
// loop or, under a supplied Store, another tenant, or revived from disk.
func (e *Engine) SharedHits() int { return e.sharedHits }

// InteriorIters returns how many interior (all-local) iterations the
// engine has executed; SegmentIters how many of them a loop's Segment
// body ran a segment at a time instead of Body per element.
func (e *Engine) InteriorIters() int { return e.interiorIters }

// SegmentIters: see InteriorIters.
func (e *Engine) SegmentIters() int { return e.segmentIters }

// BoundaryIters returns how many nonlocal (boundary) iterations the
// engine has executed; BoundarySegmentIters how many of them a loop's
// Segment body ran a run at a time.
func (e *Engine) BoundaryIters() int { return e.boundaryIters }

// BoundarySegmentIters: see BoundaryIters.
func (e *Engine) BoundarySegmentIters() int { return e.boundarySegIters }

// InspectSegmentIters returns how many iterations of the inspector's
// recording passes a loop's Inspect body recorded a run at a time
// instead of Body per element.
func (e *Engine) InspectSegmentIters() int { return e.inspectSegIters }

// SharedEvictions returns how many plans the engine's private store
// has evicted for capacity: 0 under a supplied Store, whose evictions
// its own Stats report.
func (e *Engine) SharedEvictions() int {
	if e.own == nil {
		return 0
	}
	return e.own.Stats().Evictions
}

// FusedWindows returns how many fusion windows (≥ 2 loops) the engine
// has executed through RunSequence.
func (e *Engine) FusedWindows() int { return e.fusedWindows }

// FusedPlans returns the number of multi-loop window plans currently
// cached (a single loop's plan lives on its Schedule).
func (e *Engine) FusedPlans() int { return e.fusedPlans.Len() }

// FusedPlanEvictions returns how many multi-loop window plans the
// bounded store has evicted for capacity.
func (e *Engine) FusedPlanEvictions() int { return e.fusedPlans.Evictions() }

// Schedule returns the cached schedule of a rank-1 loop, or nil if the
// loop has not run (or caching is disabled).
func (e *Engine) Schedule(name string) *Schedule {
	if ent := e.cache[schedKey{1, name}]; ent != nil {
		return ent.s
	}
	return nil
}

// Schedule2 returns the cached schedule of a rank-2 loop.
func (e *Engine) Schedule2(name string) *Schedule {
	if ent := e.cache[schedKey{2, name}]; ent != nil {
		return ent.s
	}
	return nil
}

// Invalidate drops the cached schedules (of either rank) of one loop
// name.  Entries in the content-addressed store are untouched: they
// are pure functions of loop structure, so other loops sharing them
// can never be left holding a stale schedule.
func (e *Engine) Invalidate(name string) {
	delete(e.cache, schedKey{1, name})
	delete(e.cache, schedKey{2, name})
}

// InvalidateAll drops all cached schedules, including the engine's
// private store: the engine forgets everything and rebuilds from
// scratch.  A supplied Store is not the engine's to clear.
func (e *Engine) InvalidateAll() {
	e.cache = map[schedKey]*cacheEntry{}
	if e.Store == e.own {
		e.Store = nil
	}
	e.own = nil
	e.fusedPlans.Reset()
}

// Run executes one rank-1 forall: schedule acquisition is timed under
// the "inspector" phase (zero-cost when cached or compile-time
// analyzed), execution under "executor".  A single loop is a sequence
// of one — a fusion window of one (fuse.go).
func (e *Engine) Run(l *Loop) {
	e.one[0] = SeqLoop{L: l}
	e.RunSequence(e.one[:])
}

// Run2 executes a two-dimensional forall through the same pipeline.
func (e *Engine) Run2(l *Loop2) {
	e.one[0] = SeqLoop{L2: l}
	e.RunSequence(e.one[:])
}

// phaseOf returns the timing phase the loop's execution is attributed
// to (default PhaseExecutor).
func phaseOf(c *loopCore) string {
	if c.phase == "" {
		return PhaseExecutor
	}
	return c.phase
}

// validate checks a rank-1 loop specification once per Run.
func (e *Engine) validate(l *Loop) {
	if l.Name == "" {
		panic("forall: loop needs a Name for schedule caching")
	}
	if l.Body == nil {
		panic("forall: loop has no Body")
	}
	if l.OnProc == nil {
		if l.On == nil {
			panic(fmt.Sprintf("forall %s: needs On array or OnProc", l.Name))
		}
		if l.On.Replicated() {
			panic(fmt.Sprintf("forall %s: on clause over replicated array", l.Name))
		}
		if l.On.Rank() != 1 || l.On.Dist().Grid().Rank() != 1 {
			panic(fmt.Sprintf("forall %s: on clause requires a 1-D array over a 1-D processor grid", l.Name))
		}
		if l.OnF.A == 0 {
			panic(fmt.Sprintf("forall %s: OnF.A must be nonzero (use analysis.Identity)", l.Name))
		}
	}
	for _, r := range l.Reads {
		if r.Array == nil {
			panic(fmt.Sprintf("forall %s: nil read array", l.Name))
		}
		if r.Dim < 0 || r.Dim >= r.Array.Rank() {
			panic(fmt.Sprintf("forall %s: read of %q: Dim %d out of range", l.Name, r.Array.Name(), r.Dim))
		}
	}
}

// validate2 checks a rank-2 loop specification once per Run2.
func (e *Engine) validate2(l *Loop2) {
	if l.Name == "" {
		panic("forall: Loop2 needs a Name")
	}
	if l.Body == nil {
		panic(fmt.Sprintf("forall %s: Loop2 has no Body", l.Name))
	}
	on := l.On
	if on == nil || on.Rank() != 2 || on.Replicated() {
		panic(fmt.Sprintf("forall %s: Loop2 needs a rank-2 distributed on array", l.Name))
	}
	if on.Dist().Grid().Rank() != 2 || on.Dist().Pattern(0) == nil || on.Dist().Pattern(1) == nil {
		panic(fmt.Sprintf("forall %s: Loop2 on array must distribute both dimensions over a rank-2 grid", l.Name))
	}
	if (l.OnF2 != analysis.Affine2{}) && (l.OnF2.I.A == 0 || l.OnF2.J.A == 0) {
		panic(fmt.Sprintf("forall %s: OnF2 coefficients must be nonzero (use analysis.Identity2)", l.Name))
	}
	for _, r := range l.Reads {
		if r.Array == nil {
			panic(fmt.Sprintf("forall %s: nil read array", l.Name))
		}
	}
}

// schedule returns a valid Schedule: from the per-name cache when the
// loop reruns unchanged, else around a plan the content-addressed
// store adopts or builds.
func (e *Engine) schedule(c *loopCore) *Schedule {
	key := schedKey{c.rank, c.name}
	if !e.NoCache {
		if ent, ok := e.cache[key]; ok && ent.matches(c) && depsFresh(c, ent) {
			e.lastKind = BuildCached
			return ent.s
		}
	}
	// Content-addressed sharing applies only to compile-time schedules:
	// they are pure functions of (distribution, bounds, read affines,
	// on clause), whereas inspector schedules depend on what the body
	// actually referenced (indirect subscripts, OnProc, enumeration).
	var p *plan
	adopted := false
	if c.analyzable() && !e.ForceInspector && !e.NoCache {
		if e.Store == nil {
			e.own = NewSharedStore(sharedScheduleCap, "")
			e.Store = e.own
		}
		// Adoption allocates buffers, not set algebra, so it is free.
		p, adopted = e.Store.getOrBuild(e.node.ID(), shareKeyOf(c), func() *plan { return e.build(c) })
	} else {
		p = e.build(c)
	}
	s := e.instantiate(p)
	if adopted {
		e.sharedHits++
		e.lastKind = BuildShared
	} else {
		e.builds++
		e.lastKind = p.kind
	}
	if !e.NoCache {
		e.store(key, c, s)
	}
	return s
}

// build constructs a plan for c — compile-time when the loop is
// analyzable (and not forced), else by the run-time inspector — timed
// under the inspector phase.
func (e *Engine) build(c *loopCore) *plan {
	e.node.StartPhase(PhaseInspector)
	var p *plan
	if c.analyzable() && !e.ForceInspector {
		p = e.buildCompileTime(c)
	} else {
		p = e.buildInspector(c)
	}
	e.node.StopPhase(PhaseInspector)
	p.rank = c.rank
	p.finish()
	return p
}

// instantiate gives this engine its own hold on p: fresh receive
// buffers, the single-loop window plan and a new sid.  Everything else
// is p's, shared by pointer.
func (e *Engine) instantiate(p *plan) *Schedule {
	s := &Schedule{plan: p, bufs: make([][]float64, len(p.slots))}
	back := make([]float64, s.RecvCount())
	for k, sl := range p.slots {
		s.bufs[k], back = back[:sl.in.Total:sl.in.Total], back[sl.in.Total:]
	}
	s.window = e.buildWindowPlan([]*Schedule{s})
	e.sidCounter++
	s.sid = e.sidCounter
	return s
}

// store records the name → schedule binding with the shape it was made
// under.
func (e *Engine) store(key schedKey, c *loopCore, s *Schedule) {
	sigs := make([]readSig, len(c.reads))
	for i, r := range c.reads {
		sigs[i] = sigOf(r)
	}
	vers := make([]int, len(c.deps))
	for i, d := range c.deps {
		vers[i] = d.Version()
	}
	e.cache[key] = &cacheEntry{
		s: s, bounds: c.bounds, onF: c.onF, onF2: c.onF2,
		onDist:    onDistOf(c),
		enumerate: c.enumerate, readSigs: sigs, depVersions: vers,
	}
}

// readSig is the comparable shape of one ReadSpec; form distinguishes
// indirect (0), rank-1 affine (1), and rank-2 affine (2) reads, and dim
// the dimension a rank-1 affine subscript reads.
// distFP records the array's distribution fingerprint at store time,
// so in-place redistribution invalidates the binding.
type readSig struct {
	arr    *darray.Array
	form   uint8
	aff    analysis.Affine
	dim    int
	aff2   analysis.Affine2
	distFP uint64
}

// sigOf projects one ReadSpec without allocating.
func sigOf(r ReadSpec) readSig {
	sig := readSig{arr: r.Array, distFP: r.Array.Dist().Fingerprint()}
	if r.Affine != nil {
		sig.form, sig.aff, sig.dim = 1, *r.Affine, r.Dim
	} else if r.Affine2 != nil {
		sig.form, sig.aff2 = 2, *r.Affine2
	}
	return sig
}

func depsFresh(c *loopCore, ent *cacheEntry) bool {
	if len(c.deps) != len(ent.depVersions) {
		return false
	}
	for i, d := range c.deps {
		if d.Version() != ent.depVersions[i] {
			return false
		}
	}
	return true
}

// appendDistinct appends each read's array to dst on first appearance.
// This single helper defines the slot order of a schedule: the build
// path (assembleSlots), the execute-time binding (runWindow,
// runReference) and the share key (shareKeyOf) all derive slots from
// it, so they can never disagree on which array occupies which slot.
func appendDistinct(dst []*darray.Array, reads []ReadSpec) []*darray.Array {
	for _, r := range reads {
		found := false
		for _, a := range dst {
			if a == r.Array {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, r.Array)
		}
	}
	return dst
}

// distinctArrays returns the distinct arrays referenced by the loop's
// reads, in first-appearance (slot) order.
func distinctArrays(c *loopCore) []*darray.Array {
	return appendDistinct(nil, c.reads)
}

// recBytes is the modeled wire size of one in/out record (Figure 5:
// two processor ids, two bounds, one pointer).
const recBytes = 20
