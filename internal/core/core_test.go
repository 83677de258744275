package core

import (
	"strings"
	"sync"
	"testing"

	"kali/internal/analysis"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
)

func TestRunBasics(t *testing.T) {
	var mu sync.Mutex
	ids := map[int]bool{}
	rep := Run(Config{P: 4, Params: machine.Ideal()}, func(ctx *Context) {
		mu.Lock()
		ids[ctx.ID()] = true
		mu.Unlock()
		if ctx.P() != 4 {
			t.Errorf("P = %d", ctx.P())
		}
	})
	if len(ids) != 4 {
		t.Fatalf("ran on %d nodes", len(ids))
	}
	if rep.P != 4 || rep.Machine != "ideal" {
		t.Fatalf("report %+v", rep)
	}
}

func TestArrayConstructors(t *testing.T) {
	Run(Config{P: 2, Params: machine.Ideal()}, func(ctx *Context) {
		if got := ctx.BlockArray("b", 10).Dist().String(); got != "dist by [block]" {
			t.Errorf("block: %s", got)
		}
		if got := ctx.CyclicArray("c", 10).Dist().String(); got != "dist by [cyclic]" {
			t.Errorf("cyclic: %s", got)
		}
		if got := ctx.ReplicatedArray("r", 5).Dist().String(); got != "replicated" {
			t.Errorf("replicated: %s", got)
		}
		a2 := ctx.Array("m", []int{4, 3}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()})
		if a2.Rank() != 2 {
			t.Error("2-D array")
		}
		ia := ctx.BlockIntArray("k", 10)
		if ia.Rank() != 1 {
			t.Error("int array")
		}
		ia2 := ctx.IntArray("k2", []int{4, 2}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()})
		if ia2.Rank() != 2 {
			t.Error("2-D int array")
		}
	})
}

func TestForallThroughContext(t *testing.T) {
	rep := Run(Config{P: 4, Params: machine.NCUBE7()}, func(ctx *Context) {
		a := ctx.BlockArray("a", 16)
		a.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) { a.Set1(i, float64(i)) })
		ctx.Forall(&forall.Loop{
			Name: "sq", Lo: 1, Hi: 16,
			On: a, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: a, Affine: &analysis.Identity}},
			Body: func(i int, e *forall.Env) {
				v := e.Read(a, i)
				e.Flops(1)
				e.Write(a, i, v*v)
			},
		})
		if a.IsLocal1(3) && a.Get1(3) != 9 {
			t.Errorf("a[3] = %g", a.Get1(3))
		}
	})
	if rep.Executor <= 0 {
		t.Fatal("no executor time recorded")
	}
	if rep.Total != rep.Inspector+rep.Executor {
		t.Fatal("Total must be inspector+executor")
	}
}

func TestReduceAndBarrier(t *testing.T) {
	Run(Config{P: 4, Params: machine.Ideal()}, func(ctx *Context) {
		ctx.Barrier()
		if got := ctx.AllReduce(float64(ctx.ID()), "sum"); got != 6 {
			t.Errorf("sum = %g", got)
		}
	})
}

func TestReportString(t *testing.T) {
	r := Report{P: 8, Machine: "NCUBE/7", Total: 10, Inspector: 1, Executor: 9}
	s := r.String()
	for _, want := range []string{"NCUBE/7", "P=8", "10.00", "10.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
	if r.OverheadPct() != 10 {
		t.Fatal("overhead pct")
	}
	if (Report{}).OverheadPct() != 0 {
		t.Fatal("zero-total overhead must be 0")
	}
}

func TestRunReusesMachine(t *testing.T) {
	m := sim.MustNew(2, machine.Ideal())
	cfg := Config{P: m.P(), Machine: m}
	prog := func(ctx *Context) {
		if ctx.Node.Machine() != m {
			t.Error("Run built a fresh machine instead of reusing cfg.Machine")
		}
		ctx.Barrier()
	}
	r1 := Run(cfg, prog)
	r2 := Run(cfg, prog)
	if r1.P != 2 || r2.P != 2 {
		t.Fatal("Run on a reused machine reports wrong P")
	}
}
