package lang

import (
	"testing"

	"kali/internal/core"
	"kali/internal/machine"
)

// Benchmarks for the steady-state forall replay path: one elaborated
// program, schedules cached, body re-executed per iteration.  The
// ledger's stencil-vm workload (benchmark/, lang.vm_ns_per_elem) is
// the measurement of record; run these with -bench to profile where
// the body path spends its time.

func benchProgram() string {
	return jacobi2dBenchSrc
}

const jacobi2dBenchSrc = `
processors Procs : array[1..2, 1..2];
const n = 32;
var u, old : array[1..n, 1..n] of real dist by [block, block] on Procs;
    r, c : integer;
begin
    for r in 1..n do
        for c in 1..n do
            u[r,c] := float((r*13 + c*7) mod 11);
        end;
    end;
    forall r in 1..n-2, c in 1..n-2 on u[r+1,c+1].loc do
        u[r+1,c+1] := 0.25*old[r,c+1] + 0.25*old[r+1,c] + 0.25*old[r+1,c+2] + 0.25*old[r+2,c+1];
    end;
end.
`

// benchReplay builds the jacobi relaxation forall once and replays it
// b.N times on a 4-node sim machine, reporting ns per element.
func benchReplay(b *testing.B, noVM bool) {
	prog, err := Compile(benchProgram())
	if err != nil {
		b.Fatal(err)
	}
	prog.NoVM = noVM
	el, err := prog.elaborate(4)
	if err != nil {
		b.Fatal(err)
	}
	fa := findForall(prog.file.Main, 0)
	if fa == nil {
		b.Fatal("no forall")
	}
	n := 32
	elems := (n - 2) * (n - 2)
	cfg := core.Config{P: el.procP, Params: machine.Ideal()}
	core.Run(cfg, func(ctx *core.Context) {
		in := newInterp(prog.file, ctx, el)
		in.declareArrays()
		in.execStmts(prog.file.Main, nil, nil)
		ctx.Node.Barrier()
		if ctx.Node.ID() == 0 {
			b.ResetTimer()
		}
		for k := 0; k < b.N; k++ {
			in.execStmt(fa, nil, nil)
			ctx.Node.Barrier()
		}
		ctx.Node.Barrier()
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
}

func BenchmarkJacobiBodyVM(b *testing.B)     { benchReplay(b, false) }
func BenchmarkJacobiBodyWalker(b *testing.B) { benchReplay(b, true) }
