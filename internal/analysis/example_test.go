package analysis_test

import (
	"fmt"
	"maps"
	"slices"

	"kali/internal/analysis"
	"kali/internal/dist"
)

// ExampleCompute prints the communication sets of paper §3 (Figures 2
// and 3) for the Figure 1 shift loop
//
//	forall i in 1..15 on A[i].loc do ... A[i+1] ... end
//
// with A of 16 elements over 4 processors, first distributed by block
// and then cyclic.  The loop text is the same; the message sets are
// not.  Under block only each block's boundary element moves, while
// under cyclic every iteration is nonlocal: the detail the global name
// space hides from the programmer.
func ExampleCompute() {
	const n, p = 16, 4
	g := analysis.Affine{A: 1, C: 1}
	for _, pat := range []dist.Pattern{dist.NewBlock(n, p), dist.NewCyclic(n, p)} {
		fmt.Printf("loop:  forall i in 1..%d on A[i].loc do ... A[i+1] ... end\n", n-1)
		fmt.Printf("dist:  A %s over %d processors\n\n", pat, p)
		reads := []analysis.Read{{Pat: pat, G: g}}
		for q := 0; q < p; q++ {
			s := analysis.Compute(pat, analysis.Identity, 1, n-1, reads, q)
			fmt.Printf("processor %d:\n", q)
			fmt.Printf("  local(p)      = %v\n", pat.Local(q))
			fmt.Printf("  exec(p)       = %v\n", s.Exec)
			fmt.Printf("  exec ∩ ref    = %v   (local iterations)\n", s.ExecLocal)
			fmt.Printf("  exec - ref    = %v   (nonlocal iterations)\n", s.ExecNonlocal)
			for _, peer := range slices.Sorted(maps.Keys(s.In[0])) {
				fmt.Printf("  in(p,%d)       = %v\n", peer, s.In[0][peer])
			}
			for _, peer := range slices.Sorted(maps.Keys(s.Out[0])) {
				fmt.Printf("  out(p,%d)      = %v\n", peer, s.Out[0][peer])
			}
		}
		fmt.Println()
	}
	// Output:
	// loop:  forall i in 1..15 on A[i].loc do ... A[i+1] ... end
	// dist:  A block(16/4) over 4 processors
	//
	// processor 0:
	//   local(p)      = {[1..4]}
	//   exec(p)       = {[1..4]}
	//   exec ∩ ref    = {[1..3]}   (local iterations)
	//   exec - ref    = {[4]}   (nonlocal iterations)
	//   in(p,1)       = {[5]}
	// processor 1:
	//   local(p)      = {[5..8]}
	//   exec(p)       = {[5..8]}
	//   exec ∩ ref    = {[5..7]}   (local iterations)
	//   exec - ref    = {[8]}   (nonlocal iterations)
	//   in(p,2)       = {[9]}
	//   out(p,0)      = {[5]}
	// processor 2:
	//   local(p)      = {[9..12]}
	//   exec(p)       = {[9..12]}
	//   exec ∩ ref    = {[9..11]}   (local iterations)
	//   exec - ref    = {[12]}   (nonlocal iterations)
	//   in(p,3)       = {[13]}
	//   out(p,1)      = {[9]}
	// processor 3:
	//   local(p)      = {[13..16]}
	//   exec(p)       = {[13..15]}
	//   exec ∩ ref    = {[13..15]}   (local iterations)
	//   exec - ref    = {}   (nonlocal iterations)
	//   out(p,2)      = {[13]}
	//
	// loop:  forall i in 1..15 on A[i].loc do ... A[i+1] ... end
	// dist:  A cyclic(16/4) over 4 processors
	//
	// processor 0:
	//   local(p)      = {[1] [5] [9] [13]}
	//   exec(p)       = {[1] [5] [9] [13]}
	//   exec ∩ ref    = {}   (local iterations)
	//   exec - ref    = {[1] [5] [9] [13]}   (nonlocal iterations)
	//   in(p,1)       = {[2] [6] [10] [14]}
	//   out(p,3)      = {[5] [9] [13]}
	// processor 1:
	//   local(p)      = {[2] [6] [10] [14]}
	//   exec(p)       = {[2] [6] [10] [14]}
	//   exec ∩ ref    = {}   (local iterations)
	//   exec - ref    = {[2] [6] [10] [14]}   (nonlocal iterations)
	//   in(p,2)       = {[3] [7] [11] [15]}
	//   out(p,0)      = {[2] [6] [10] [14]}
	// processor 2:
	//   local(p)      = {[3] [7] [11] [15]}
	//   exec(p)       = {[3] [7] [11] [15]}
	//   exec ∩ ref    = {}   (local iterations)
	//   exec - ref    = {[3] [7] [11] [15]}   (nonlocal iterations)
	//   in(p,3)       = {[4] [8] [12] [16]}
	//   out(p,1)      = {[3] [7] [11] [15]}
	// processor 3:
	//   local(p)      = {[4] [8] [12] [16]}
	//   exec(p)       = {[4] [8] [12]}
	//   exec ∩ ref    = {}   (local iterations)
	//   exec - ref    = {[4] [8] [12]}   (nonlocal iterations)
	//   in(p,0)       = {[5] [9] [13]}
	//   out(p,2)      = {[4] [8] [12] [16]}
}
