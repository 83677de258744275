package lang

import (
	"fmt"
	"testing"

	"kali/internal/core"
	"kali/internal/machine"
)

// Benchmarks for the steady-state forall replay path: one elaborated
// program, schedules cached, body re-executed per iteration.  The
// ledger's stencil-vm workload (benchmark/, lang.vm_ns_per_elem) is
// the measurement of record; run these with -bench to profile where
// the body path spends its time.

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

// segmentBenchSrc is a straight-line body over rows that are local
// whole (a 4×1 processor grid), restricted to the first %d columns:
// every interior segment has exactly that length.
const segmentBenchSrc = `
processors Procs : array[1..4, 1..1];
const n = 2048;
      m = 64;
      w = %d;
var a, b : array[1..n, 1..m] of real dist by [block, block] on Procs;
    r, c : integer;
begin
    for r in 1..n do
        for c in 1..m do
            a[r,c] := float((r*13 + c*7) mod 11);
        end;
    end;
    forall r in 1..n, c in 1..w on b[r,c].loc do
        b[r,c] := 0.25*a[r,c] + 0.25*a[r,c+1] + 0.5*a[r,c+2];
    end;
end.
`

// benchReplay builds src's forall once and replays it b.N times on a
// 4-node sim machine, reporting ns per element.
func benchReplay(b *testing.B, src string, elems int, exec func(*interp)) {
	benchLoop(b, src, elems, exec, false)
}

// benchLoop is benchReplay, with the loop's Segment entry dropped if
// perElement, so that every iteration runs through Body.
func benchLoop(b *testing.B, src string, elems int, exec func(*interp), perElement bool) {
	prog, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	el, err := prog.elaborate(4)
	if err != nil {
		b.Fatal(err)
	}
	fa := findForall(prog.file.Main, 0)
	if fa == nil {
		b.Fatal("no forall")
	}
	cfg := core.Config{P: el.procP, Params: machine.NCUBE7()}
	core.Run(cfg, func(ctx *core.Context) {
		in := newInterp(prog.file, ctx, el)
		in.declareArrays()
		exec(in)
		if l := in.loops2[fa]; perElement && l != nil {
			l.Segment = nil
		}
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

func BenchmarkJacobiBodyVM(b *testing.B)     { benchReplay(b, jacobi2dBenchSrc, 30*30, (*interp).exec) }
func BenchmarkJacobiBodyWalker(b *testing.B) { benchReplay(b, jacobi2dBenchSrc, 30*30, (*interp).walk) }

// benchTopLevel runs the stencil-vm workload's initialisation nest —
// its program with no sweeps: a 128² for r / for c / if … or … nest
// that stores the boundary owner-first — b.N times on a 4-node sim
// machine, and reports the wall time per inner iteration, which each of
// the four nodes runs at once.
func benchTopLevel(b *testing.B, exec func(*interp)) {
	const n = 128
	prog, err := Compile(stencilProgram(n, n, 0))
	if err != nil {
		b.Fatal(err)
	}
	el, err := prog.elaborate(4)
	if err != nil {
		b.Fatal(err)
	}
	core.Run(core.Config{P: el.procP, Params: machine.NCUBE7()}, func(ctx *core.Context) {
		in := newInterp(prog.file, ctx, el)
		in.declareArrays()
		ctx.Node.Barrier()
		if ctx.Node.ID() == 0 {
			b.ResetTimer()
		}
		for k := 0; k < b.N; k++ {
			exec(in)
		}
		ctx.Node.Barrier()
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/iter")
}

func BenchmarkTopLevelVM(b *testing.B)     { benchTopLevel(b, (*interp).exec) }
func BenchmarkTopLevelWalker(b *testing.B) { benchTopLevel(b, (*interp).walk) }

// BenchmarkVMSegmentLength: what one interior segment costs by its
// length.  The column-wise kernel pays its dispatch once per segment
// and instruction, the per-element mode once per element and
// instruction; length 1 is where the two could cross.
func BenchmarkVMSegmentLength(b *testing.B) {
	for _, w := range []int{1, 2, 8, 62} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			benchReplay(b, fmt.Sprintf(segmentBenchSrc, w), 2048*w, (*interp).exec)
		})
	}
}

// boundaryBenchSrc is a shifted five-point stencil every iteration of
// which is a boundary one: a 4×m array split by rows (a 2×1 grid), so
// that each of the two nodes runs one halo row of m-2 elements, or an
// m×4 array split by columns (1×2), so that each runs m-2 one-element
// runs down a halo column.
const boundaryBenchSrc = `
processors Procs : array[1..%d, 1..%d];
const m = 1024;
var u, old : array[1..%s, 1..%s] of real dist by [block, block] on Procs;
    r, c : integer;
begin
    for r in 1..%[3]s do
        for c in 1..%[4]s do
            old[r,c] := float((r*13 + c*7) mod 11);
        end;
    end;
    forall r in 1..%[3]s-2, c in 1..%[4]s-2 on u[r+1,c+1].loc do
        u[r+1,c+1] := 0.25*old[r,c+1] + 0.25*old[r+1,c] + 0.25*old[r+1,c+2] + 0.25*old[r+2,c+1];
    end;
end.
`

// BenchmarkBoundaryRun: what a boundary iteration costs, in ns per
// element, through Body one element at a time with every read going
// through Env ("env", the executor's only path before boundary runs
// were offered to the loop's Segment body) and through the VM's segment
// entry ("segment"): a halo row, which runs column-wise, and a halo
// column, whose runs are one element long.
func BenchmarkBoundaryRun(b *testing.B) {
	for _, shape := range []struct {
		name, src string
	}{
		{"row", fmt.Sprintf(boundaryBenchSrc, 2, 1, "4", "m")},
		{"column", fmt.Sprintf(boundaryBenchSrc, 1, 2, "m", "4")},
	} {
		for _, path := range []string{"env", "segment"} {
			b.Run(shape.name+"/"+path, func(b *testing.B) {
				benchLoop(b, shape.src, 2*(1024-2), (*interp).exec, path == "env")
			})
		}
	}
}
