package forall

import (
	"kali/internal/analysis"
	"kali/internal/dist"
)

// Content-addressed schedule sharing (the cross-loop half of the
// paper's §3.2 reuse argument).  A compile-time schedule is a pure
// function of the loop's structure: the on array's distribution and
// on-clause subscript, the bounds, and each read's affine subscript
// and distribution — never of any array's *contents*.  Keying built
// plans by that structure lets identically-shaped loops over
// different arrays, and repeated loops across time steps under
// different names, replay one shared plan instead of rebuilding it,
// paying the set algebra once per shape per node.
//
// The key addresses the second of an engine's two schedule tiers,
// after the per-name cache: a SharedStore (store.go) mapping it to the
// immutable *plan, at one of two scopes — an engine's private store,
// or one store shared by every engine of a server's tenants.  Each
// adopting loop adds receive buffers of its own (Engine.instantiate).
//
// Inspector-built schedules are excluded: their in sets record what
// the body actually referenced (indirect subscripts, OnProc
// placement, Saltz enumeration), which the structural key cannot see.

// shareKey is the comparable structural identity of a compile-time
// schedule.  The two hash fields fingerprint the distributions (and
// the read → distinct-array aliasing pattern), which have no compact
// comparable form of their own.
type shareKey struct {
	rank   int
	bounds [4]int
	onF    analysis.Affine
	onF2   analysis.Affine2
	onDist uint64
	reads  uint64
	nreads int
}

func mixInt(h uint64, v int) uint64 { return dist.MixFingerprint(h, uint64(int64(v))) }

// fingerprint condenses the key to one stable hash.  Every ingredient
// is structural (bounds, affine coefficients, distribution
// fingerprints — themselves content-based FNV hashes), so the value is
// identical across processes and runs: the cross-tenant SharedStore
// shards on it, and the disk cache names files with it, so a warm
// start in a fresh process finds the schedules a previous one saved.
func (k shareKey) fingerprint() uint64 {
	h := dist.FingerprintSeed
	h = mixInt(h, k.rank)
	for _, b := range k.bounds {
		h = mixInt(h, b)
	}
	h = mixInt(mixInt(h, k.onF.A), k.onF.C)
	h = mixInt(mixInt(h, k.onF2.I.A), k.onF2.I.C)
	h = mixInt(mixInt(h, k.onF2.J.A), k.onF2.J.C)
	h = dist.MixFingerprint(h, k.onDist)
	h = dist.MixFingerprint(h, k.reads)
	h = mixInt(h, k.nreads)
	return h
}

// shareKeyOf fingerprints an analyzable loop.  Each read contributes
// its slot index (its array's position in the appendDistinct order —
// the same order assembleSlots builds slots in and the executors bind
// them in, so two reads of one array can never share with two reads of
// different but identically-distributed arrays), its affine subscript,
// and its array's distribution fingerprint; a line read of a rank-2
// array also its dimension, so plans for rows and for columns are never
// adopted for each other.
func shareKeyOf(c *loopCore) shareKey {
	key := shareKey{
		rank:   c.rank,
		bounds: c.bounds,
		onF:    c.onF,
		onF2:   c.onF2,
		onDist: c.on.Dist().Fingerprint(),
		nreads: len(c.reads),
	}
	slots := distinctArrays(c)
	h := dist.FingerprintSeed
	for _, r := range c.reads {
		for k, a := range slots {
			if a == r.Array {
				h = mixInt(h, k)
				break
			}
		}
		switch {
		case r.Affine != nil:
			h = mixInt(mixInt(mixInt(h, 1), r.Affine.A), r.Affine.C)
			if r.Array.Rank() == 2 {
				h = mixInt(h, r.Dim)
			}
		case r.Affine2 != nil:
			h = mixInt(mixInt(mixInt(h, 2), r.Affine2.I.A), r.Affine2.I.C)
			h = mixInt(mixInt(h, r.Affine2.J.A), r.Affine2.J.C)
		}
		h = dist.MixFingerprint(h, r.Array.Dist().Fingerprint())
	}
	key.reads = h
	return key
}
