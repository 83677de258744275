package lang

import (
	"fmt"
	"testing"

	"kali/internal/machine"
)

// Line reads: a one-index forall reading a rank-2 array with one
// subscript affine in the loop variable and the other anything.  The
// read is proved local without a schedule only when the array's rows
// are placed as the on array's elements are; otherwise its schedule is
// built against the layout the array has when the loop runs: closed
// form when that layout distributes exactly the subscripted dimension,
// the inspector when not.

// rowsumSrc is rowsum.kali with B and s declared by the given dist
// items and B's row count: each layout below once made the checker
// prove B[i,j] local where it is not.
func rowsumSrc(bDist, sDist string, bRows int) string {
	return fmt.Sprintf(`processors Procs : array[1..P] with P in 1..64;
const M = 5;
var B : array[1..%[3]d, 1..M] of real dist by [%[1]s] on Procs;
    s : array[1..12] of real dist by [%[2]s] on Procs;
    i, j : integer;
begin
    for i in 1..%[3]d do
        for j in 1..M do
            B[i,j] := float(i) + float(j) / 10.0;
        end;
    end;
    forall i in 1..%[3]d on s[i].loc do
        var acc : real;
        var j : integer;
        acc := 0.0;
        for j in 1..M do
            acc := acc + B[i,j];
        end;
        s[i] := acc;
    end;
end.
`, bDist, sDist, bRows)
}

// lineSrcs are the programs the line-read tests run, by name.
var lineSrcs = map[string]string{
	// The three layouts the aligned shortcut once accepted unsoundly.
	"rowsum [*,block]":           rowsumSrc("*, block", "block", 12),
	"rowsum [cyclic,*] on block": rowsumSrc("cyclic, *", "block", 12),
	"rowsum 8 rows of 12":        rowsumSrc("block, *", "block", 8),

	// Row and column sweeps of a rectangular ADI, the column sweep
	// under the transposed layout.
	"adi": `processors Procs : array[1..P] with P in 1..8;
const n = 10;
      m = 7;
var u : array[1..n, 1..m] of real dist by [block, *] on Procs;
    row : array[1..n] of real dist by [block] on Procs;
    col : array[1..m] of real dist by [block] on Procs;
    r, c, s : integer;
begin
    for r in 1..n do for c in 1..m do u[r,c] := float((r*13 + c*7) mod 11); end; end;
    for s in 1..2 do
        forall r in 1..n on row[r].loc do
            var c2 : integer;
            for c2 in 2..m-1 do u[r,c2] := 0.25*u[r,c2-1] + 0.5*u[r,c2] + 0.25*u[r,c2+1]; end;
        end;
        redistribute u as [*, block];
        forall c in 1..m on col[c].loc do
            var r2 : integer;
            for r2 in 2..n-1 do u[r2,c] := 0.25*u[r2-1,c] + 0.5*u[r2,c] + 0.25*u[r2+1,c]; end;
        end;
        redistribute u as [block, *];
    end;
end.
`,

	// Shifted lines: the next row, then the previous column, each a
	// whole line from a neighbour.
	"shifted": `processors Procs : array[1..P] with P in 1..8;
const n = 10;
      m = 7;
var u, v : array[1..n, 1..m] of real dist by [block, *] on Procs;
    row : array[1..n] of real dist by [block] on Procs;
    col : array[1..m] of real dist by [block] on Procs;
    r, c : integer;
begin
    for r in 1..n do for c in 1..m do u[r,c] := float(r*r + 3*c); v[r,c] := 0.0; end; end;
    forall r in 1..n-1 on row[r].loc do
        var c2 : integer;
        for c2 in 1..m do v[r,c2] := u[r+1,c2] - 0.5*u[r,c2]; end;
    end;
    redistribute u as [*, block];
    redistribute v as [*, block];
    forall c in 2..m on col[c].loc do
        var r2 : integer;
        for r2 in 1..n do v[r2,c] := v[r2,c] + 0.25*u[r2,c-1]; end;
    end;
end.
`,

	// Rows dealt cyclically under a block placement, read as they are
	// and reflected; rows dealt in blocks of two under a cyclic
	// placement, read shifted.
	"cyclic rows": oneLoopSrc(11, 4, "[cyclic, *]", "[block]", "1..n",
		"u[i,j]*float(j) + u[n+1-i,j]"),
	"block_cyclic rows": oneLoopSrc(11, 4, "[block_cyclic(2), *]", "[cyclic]", "1..n-1",
		"u[i+1,j] - 0.5*u[i,j]"),

	// Layouts that must fall back to the inspector: rows of a column
	// layout, one array read along both dimensions in one loop, and a
	// data-dependent row.
	"rows of [*,block]": oneLoopSrc(9, 6, "[*, block]", "[block]", "1..n", "u[i,j]"),
	"both dimensions":   oneLoopSrc(9, 9, "[block, *]", "[block]", "1..n", "u[i,j]*0.5 - u[j,i]"),
	"indirect rows":     oneLoopSrc(9, 6, "[block, *]", "[block]", "1..n", "u[(i*4) mod n + 1, j]"),
}

// oneLoopSrc is a program whose one forall, over rng on s[i].loc, sums
// term over j in 1..m into s[i]; term reads the n×m array u, and u and
// s are declared by the given dist items.  The program ends by
// redistributing u to its own layout, so no read of u is proved local
// without a schedule.
func oneLoopSrc(n, m int, uDist, sDist, rng, term string) string {
	return fmt.Sprintf(`processors Procs : array[1..P] with P in 1..8;
const n = %d;
      m = %d;
var u : array[1..n, 1..m] of real dist by %s on Procs;
    s : array[1..n] of real dist by %s on Procs;
    i, j : integer;
begin
    for i in 1..n do for j in 1..m do u[i,j] := float((i*7 + j*3) mod 10) - 2.5; end; end;
    forall i in %s on s[i].loc do
        var acc : real; j : integer;
        acc := 0.0;
        for j in 1..m do acc := acc + %s; end;
        s[i] := acc;
    end;
    redistribute u as %s;
end.
`, n, m, uDist, sDist, rng, term, uDist)
}

// TestLineReadsMatchOracles: every line-read program gives the compiled
// run, the walker and the reference executor the same arrays, statistics
// and clocks (threeOracles) on the simulator and on real threads on 1,
// 2, 3, 4 and 8 processors, and every run prints the one-processor
// values.
func TestLineReadsMatchOracles(t *testing.T) {
	for name, src := range lineSrcs {
		one := runKernel(t, src, "sim", machine.NCUBE7(), 1, runVM)
		for _, backend := range []string{"sim", "wall"} {
			for _, p := range []int{1, 2, 3, 4, 8} {
				tag := fmt.Sprintf("%s on %s p=%d", name, backend, p)
				vm := threeOracles(t, tag, src, backend, machine.NCUBE7(), p)
				sameArrays(t, tag+": against one processor", vm.res, one.res)
			}
		}
	}
}
