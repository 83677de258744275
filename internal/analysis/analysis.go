// Package analysis implements Kali's compile-time communication
// analysis (paper §3.1–3.2 and reference [3]).
//
// When the on clause and every distributed-array subscript are affine
// functions of the loop variable, the sets the executor needs have
// closed forms over the interval algebra of internal/index:
//
//	exec(p)   = f⁻¹(local_on(p)) ∩ [lo..hi]
//	ref_R(p)  = g_R⁻¹(local_R(p))
//	execLocal = exec(p) ∩ ⋂_R ref_R(p)
//	in(p,q)   = ⋃_R g_R(exec(p)) ∩ local_R(q)
//	out(p,q)  = ⋃_R g_R(exec(q)) ∩ local_R(p)
//
// No inspector pass and no global exchange are needed: each processor
// evaluates these formulas independently (both sides of every transfer
// derive the same sets, so the send and receive schedules agree by
// construction).  This is the "compile-time analysis" the paper
// contrasts with the run-time inspector; benchmark ABL3 measures the
// difference.
package analysis

import (
	"kali/internal/dist"
	"kali/internal/index"
)

// Affine is the subscript form a*i + c.
type Affine struct {
	A, C int
}

// Identity is the subscript i.
var Identity = Affine{A: 1, C: 0}

// Apply evaluates the subscript at i.
func (f Affine) Apply(i int) int { return f.A*i + f.C }

// Image returns {f(i) : i ∈ s}.
func (f Affine) Image(s index.Set) index.Set { return s.Affine(f.A, f.C) }

// Preimage returns {i : f(i) ∈ s}.
func (f Affine) Preimage(s index.Set) index.Set { return s.InverseAffine(f.A, f.C) }

// Read is one affine distributed-array reference R ≡ X[g(i)].
type Read struct {
	Pat dist.Pattern // distribution of the referenced array
	G   Affine       // the subscript
}

// Exec computes exec(p): the iterations of [lo..hi] placed on p by the
// on clause "X[f(i)].loc", where on is X's distribution.
func Exec(on dist.Pattern, f Affine, lo, hi, p int) index.Set {
	return f.Preimage(on.Local(p)).Intersect(index.Range(lo, hi))
}

// Ref computes ref_R(p): the iterations for which reference R is local
// on p.
func Ref(r Read, p int) index.Set {
	return r.G.Preimage(r.Pat.Local(p))
}

// Sets is the complete compile-time schedule information for one
// processor.
type Sets struct {
	Exec         index.Set
	ExecLocal    index.Set
	ExecNonlocal index.Set
	// In[k][q] and Out[k][q] are the element sets received from /
	// sent to processor q for read k (nil maps mean no communication).
	In  []map[int]index.Set
	Out []map[int]index.Set
}

// Compute evaluates all sets for processor p.  reads may reference
// arrays with different distributions.  P is the processor count of
// the on-clause pattern (all patterns must share it).
func Compute(on dist.Pattern, f Affine, lo, hi int, reads []Read, p int) Sets {
	s := Sets{Exec: Exec(on, f, lo, hi, p)}
	s.ExecLocal = s.Exec
	for _, r := range reads {
		s.ExecLocal = s.ExecLocal.Intersect(Ref(r, p))
	}
	s.ExecNonlocal = s.Exec.Minus(s.ExecLocal)

	np := on.P()
	s.In = make([]map[int]index.Set, len(reads))
	s.Out = make([]map[int]index.Set, len(reads))
	for k, r := range reads {
		needs := r.G.Image(s.Exec) // everything this proc touches via R
		for q := 0; q < np; q++ {
			if q == p {
				continue
			}
			in := needs.Intersect(r.Pat.Local(q))
			if !in.Empty() {
				if s.In[k] == nil {
					s.In[k] = map[int]index.Set{}
				}
				s.In[k][q] = in
			}
			// out(p,q) = g(exec(q)) ∩ local(p)
			out := r.G.Image(Exec(on, f, lo, hi, q)).Intersect(r.Pat.Local(p))
			if !out.Empty() {
				if s.Out[k] == nil {
					s.Out[k] = map[int]index.Set{}
				}
				s.Out[k][q] = out
			}
		}
	}
	return s
}
