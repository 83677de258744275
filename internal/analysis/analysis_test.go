package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kali/internal/dist"
	"kali/internal/index"
)

// TestShiftLoopSets reproduces the paper's Figure 1 loop analysis:
//
//	forall i in 1..N-1 on A[i].loc do A[i] := A[i+1] end
//
// with A block-distributed.  Each processor's only nonlocal iteration
// is its last row boundary (the highest local index), receiving one
// element from the next processor.
func TestShiftLoopSets(t *testing.T) {
	const N, P = 16, 4 // blocks of 4
	blk := dist.NewBlock(N, P)
	read := Read{Pat: blk, G: Affine{A: 1, C: 1}} // A[i+1]

	for p := 0; p < P; p++ {
		s := Compute(blk, Identity, 1, N-1, []Read{read}, p)

		wantExec := blk.Local(p).Intersect(index.Range(1, N-1))
		if !s.Exec.Equal(wantExec) {
			t.Fatalf("proc %d exec = %v, want %v", p, s.Exec, wantExec)
		}
		if p < P-1 {
			// Last local iteration reads A[i+1] from proc p+1.
			boundary := blk.Local(p).Max()
			if !s.ExecNonlocal.Equal(index.Single(boundary)) {
				t.Fatalf("proc %d nonlocal = %v, want {%d}", p, s.ExecNonlocal, boundary)
			}
			in := s.In[0][p+1]
			if !in.Equal(index.Single(boundary + 1)) {
				t.Fatalf("proc %d in from %d = %v", p, p+1, in)
			}
		} else {
			if !s.ExecNonlocal.Empty() {
				t.Fatalf("last proc nonlocal = %v", s.ExecNonlocal)
			}
		}
		if p > 0 {
			out := s.Out[0][p-1]
			if !out.Equal(index.Single(blk.Local(p).Min())) {
				t.Fatalf("proc %d out to %d = %v", p, p-1, out)
			}
		}
	}
}

// TestInOutTransposition: in(p,q) == out(q,p) computed independently —
// the identity that lets compile-time analysis skip the global
// exchange.
func TestInOutTransposition(t *testing.T) {
	check := func(pat dist.Pattern, g Affine, lo, hi int) {
		P := pat.P()
		all := make([]Sets, P)
		for p := 0; p < P; p++ {
			all[p] = Compute(pat, Identity, lo, hi, []Read{{Pat: pat, G: g}}, p)
		}
		for p := 0; p < P; p++ {
			for q := 0; q < P; q++ {
				if p == q {
					continue
				}
				var in, out index.Set
				if all[p].In[0] != nil {
					in = all[p].In[0][q]
				}
				if all[q].Out[0] != nil {
					out = all[q].Out[0][p]
				}
				if !in.Equal(out) {
					t.Fatalf("%v g=%+v: in(%d,%d)=%v != out(%d,%d)=%v",
						pat, g, p, q, in, q, p, out)
				}
			}
		}
	}
	check(dist.NewBlock(20, 4), Affine{1, 1}, 1, 19)
	check(dist.NewBlock(20, 4), Affine{1, -1}, 2, 20)
	check(dist.NewCyclic(20, 4), Affine{1, 1}, 1, 19)
	check(dist.NewBlockCyclic(20, 4, 3), Affine{1, 2}, 1, 18)
	check(dist.NewBlock(20, 4), Affine{2, 0}, 1, 10)
}

// TestCyclicShiftCommunicatesEverything: with a cyclic distribution a
// shift-by-one makes *every* iteration nonlocal — the distribution
// sensitivity the paper's global name space hides from the programmer.
func TestCyclicShiftCommunicatesEverything(t *testing.T) {
	const N, P = 12, 3
	cyc := dist.NewCyclic(N, P)
	read := Read{Pat: cyc, G: Affine{1, 1}}
	for p := 0; p < P; p++ {
		s := Compute(cyc, Identity, 1, N-1, []Read{read}, p)
		if !s.ExecLocal.Empty() {
			t.Fatalf("proc %d: cyclic shift should have no local iterations, got %v", p, s.ExecLocal)
		}
		if !s.ExecNonlocal.Equal(s.Exec) {
			t.Fatalf("proc %d: all iterations must be nonlocal", p)
		}
	}
}

// TestBlockShiftLocalMajority: with block distribution, a shift leaves
// all but the boundary iteration local — why block beats cyclic for
// stencils.
func TestBlockShiftLocalMajority(t *testing.T) {
	const N, P = 100, 4
	blk := dist.NewBlock(N, P)
	read := Read{Pat: blk, G: Affine{1, 1}}
	s := Compute(blk, Identity, 1, N-1, []Read{read}, 1)
	if s.ExecLocal.Len() != 24 || s.ExecNonlocal.Len() != 1 {
		t.Fatalf("local=%d nonlocal=%d, want 24/1", s.ExecLocal.Len(), s.ExecNonlocal.Len())
	}
}

// TestFivePointStencilSets: two reads A[i-1], A[i+1] — interior
// processors receive from both neighbors.
func TestFivePointStencilSets(t *testing.T) {
	const N, P = 32, 4
	blk := dist.NewBlock(N, P)
	reads := []Read{
		{Pat: blk, G: Affine{1, -1}},
		{Pat: blk, G: Affine{1, 1}},
	}
	s := Compute(blk, Identity, 2, N-1, reads, 1)
	// Proc 1 owns 9..16; iterations 9..16; reads 8..15 and 10..17.
	if got := s.In[0][0]; !got.Equal(index.Single(8)) {
		t.Fatalf("in left = %v", got)
	}
	if got := s.In[1][2]; !got.Equal(index.Single(17)) {
		t.Fatalf("in right = %v", got)
	}
	if s.ExecLocal.Len() != 6 || s.ExecNonlocal.Len() != 2 {
		t.Fatalf("local=%v nonlocal=%v", s.ExecLocal, s.ExecNonlocal)
	}
}

// TestNoReadsAllLocal: a loop with no distributed reads has no
// communication and everything local.
func TestNoReadsAllLocal(t *testing.T) {
	blk := dist.NewBlock(10, 2)
	s := Compute(blk, Identity, 1, 10, nil, 0)
	if !s.ExecLocal.Equal(s.Exec) || !s.ExecNonlocal.Empty() {
		t.Fatal("no-read loop must be fully local")
	}
}

// TestOnClauseAffine: on A[i+2].loc shifts the execution sets.
func TestOnClauseAffine(t *testing.T) {
	blk := dist.NewBlock(12, 3) // blocks of 4
	// exec(p) = {i : i+2 ∈ local(p)} ∩ [1..10]
	s := Compute(blk, Affine{1, 2}, 1, 10, nil, 1)
	// local(1) = 5..8 → i ∈ 3..6
	if !s.Exec.Equal(index.Range(3, 6)) {
		t.Fatalf("exec = %v", s.Exec)
	}
}

// TestQuickSetsAgainstBruteForce compares the closed forms with a
// direct enumeration for random patterns and subscripts.
func TestQuickSetsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(40)
		P := 1 + r.Intn(5)
		var pat dist.Pattern
		switch r.Intn(3) {
		case 0:
			pat = dist.NewBlock(n, P)
		case 1:
			pat = dist.NewCyclic(n, P)
		default:
			pat = dist.NewBlockCyclic(n, P, 1+r.Intn(4))
		}
		g := Affine{A: 1, C: r.Intn(5) - 2}
		lo, hi := 1, n
		// Clamp the range so g stays in bounds.
		if g.C > 0 {
			hi = n - g.C
		} else {
			lo = 1 - g.C
		}
		if lo > hi {
			return true
		}
		p := r.Intn(P)
		s := Compute(pat, Identity, lo, hi, []Read{{Pat: pat, G: g}}, p)

		// Brute force.
		for i := lo; i <= hi; i++ {
			inExec := pat.Owner(i) == p
			if s.Exec.Contains(i) != inExec {
				return false
			}
			if inExec {
				local := pat.Owner(g.Apply(i)) == p
				if s.ExecLocal.Contains(i) != local {
					return false
				}
				if s.ExecNonlocal.Contains(i) == local {
					return false
				}
				if !local {
					q := pat.Owner(g.Apply(i))
					if s.In[0] == nil || !s.In[0][q].Contains(g.Apply(i)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAffineHelpers(t *testing.T) {
	f := Affine{2, 3}
	if f.Apply(4) != 11 {
		t.Fatal("Apply")
	}
	if !f.Image(index.Range(1, 3)).Equal(index.FromSlice([]int{5, 7, 9})) {
		t.Fatal("Image")
	}
	if !f.Preimage(index.Range(5, 9)).Equal(index.Range(1, 3)) {
		t.Fatal("Preimage")
	}
	if Identity.Apply(7) != 7 {
		t.Fatal("Identity")
	}
}
