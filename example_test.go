package kali_test

import (
	"fmt"

	"kali"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/topology"
)

// ExampleRun reproduces the paper's Figure 1 loop: a block-distributed
// array shifted left by one through the global name space.  The
// compile-time analysis finds the single boundary element each
// processor pair exchanges.
func ExampleRun() {
	const n = 12
	rep := kali.Run(kali.Config{P: 4, Params: kali.NCUBE7()}, func(ctx *kali.Context) {
		a := ctx.BlockArray("A", n)
		a.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) {
			a.Set1(i, float64(i))
		})
		ctx.Forall(&kali.Loop{
			Name: "shift", Lo: 1, Hi: n - 1,
			On: a, OnF: kali.Identity,
			Reads: []kali.ReadSpec{{Array: a, Affine: &kali.Affine{A: 1, C: 1}}},
			Body: func(i int, e *kali.Env) {
				e.Write(a, i, e.Read(a, i+1))
			},
		})
		if ctx.ID() == 0 {
			fmt.Printf("A[1..3] on processor 0: %g %g %g\n", a.Get1(1), a.Get1(2), a.Get1(3))
		}
	})
	fmt.Printf("machine: %s, processors: %d, messages: %d\n", rep.Machine, rep.P, rep.MsgsSent)
	// Output:
	// A[1..3] on processor 0: 2 3 4
	// machine: NCUBE/7, processors: 4, messages: 3
}

// ExampleRun_inspector shows a data-dependent subscript: the gather
// B[i] := A[perm[i]] cannot be analyzed statically, so the runtime
// inspector discovers the communication pattern, and the schedule is
// cached for reuse.
func ExampleRun_inspector() {
	const n = 8
	kali.Run(kali.Config{P: 2, Params: kali.Ideal()}, func(ctx *kali.Context) {
		a := ctx.BlockArray("A", n)
		b := ctx.BlockArray("B", n)
		perm := ctx.BlockIntArray("perm", n)
		a.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) { a.Set1(i, float64(i)*10) })
		perm.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) { perm.Set1(i, n+1-i) })

		ctx.Forall(&kali.Loop{
			Name: "gather", Lo: 1, Hi: n,
			On: b, OnF: kali.Identity,
			Reads:     []kali.ReadSpec{{Array: a}}, // indirect: inspector
			DependsOn: []kali.Dep{perm},
			Body: func(i int, e *kali.Env) {
				e.Write(b, i, e.Read(a, e.ReadInt(perm, i)))
			},
		})
		if ctx.ID() == 0 {
			fmt.Printf("B[1] = A[perm[1]] = A[%d] = %g\n", n, b.Get1(1))
		}
	})
	// Output:
	// B[1] = A[perm[1]] = A[8] = 80
}

// ExampleContext_Forall2 runs the package doc's rank-2 form: one
// five-point relaxation sweep over an 8x8 array tiled block×block on a
// 2x2 processor grid.  The stencil reads are affine in each dimension,
// so the halo exchange is derived at compile time.  old holds the
// linear function 8i+j, which the stencil average reproduces.
func ExampleContext_Forall2() {
	const n = 8
	tiles := dist.Must([]int{n, n}, []kali.DimSpec{kali.BlockDim(), kali.BlockDim()}, topology.MustGrid(2, 2))
	shift := func(di, dj int) *kali.Affine2 {
		return &kali.Affine2{I: kali.Affine{A: 1, C: di}, J: kali.Affine{A: 1, C: dj}}
	}
	rep := kali.Run(kali.Config{P: 4, Params: kali.NCUBE7()}, func(ctx *kali.Context) {
		a := darray.New("a", tiles, ctx.Node)
		old := darray.New("old", tiles, ctx.Node)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if old.IsLocal(i, j) {
					old.Set2(i, j, float64(n*i+j))
				}
			}
		}
		ctx.Forall2(&kali.Loop2{
			Name: "relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
			On: a, // OnF2 defaults to Identity2
			Reads: []kali.ReadSpec{
				{Array: old, Affine2: shift(-1, 0)}, {Array: old, Affine2: shift(1, 0)},
				{Array: old, Affine2: shift(0, -1)}, {Array: old, Affine2: shift(0, 1)},
			},
			Body: func(i, j int, e *kali.Env) {
				e.WriteAt(a, 0.25*(e.ReadAt(old, i-1, j)+e.ReadAt(old, i+1, j)+
					e.ReadAt(old, i, j-1)+e.ReadAt(old, i, j+1)), i, j)
			},
		})
		if a.IsLocal(4, 5) {
			fmt.Printf("a[4,5] = %g, schedule: %v\n", a.Get2(4, 5), ctx.Eng.Schedule2("relax").Kind())
		}
	})
	fmt.Printf("processors: %d, messages: %d\n", rep.P, rep.MsgsSent)
	// Output:
	// a[4,5] = 37, schedule: compile-time
	// processors: 4, messages: 8
}
