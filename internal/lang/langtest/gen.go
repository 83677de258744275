// Package langtest generates random well-formed Kali programs for
// differential testing.  The generators are shared by the language
// package's VM-vs-walker and fusion fuzzers and by the schedule
// server's concurrency fuzzer: the same program run solo and run
// racing other tenants must agree bit-for-bit, because a compiled
// schedule is a pure function of loop structure and distribution
// (paper §3.2) and sharing it across programs must be unobservable.
// The package deliberately imports nothing from the interpreter so
// non-test packages can use it without cycles.
package langtest

import (
	"fmt"
	"math/rand"
	"strings"
)

// topLevelDecls declares what genTopLevel uses besides the arrays a and
// b, the constants n and k and the scalar i: a replicated table and a
// replicated rank-3 array; a rank-2 real and a rank-2 integer array and
// a rank-3 one whose rows travel with a (they take a's distribution,
// dist); two integer scalars, two real ones.  (GenVMProgram's forall
// locals m and q shadow the globals of those names.)
func topLevelDecls(dist string) string {
	return fmt.Sprintf(`    w : array[1..k] of real;
    t3 : array[1..2, 1..k, 1..2] of real;
    rm : array[1..n, 1..k] of real dist by [%[1]s, *] on Procs;
    im : array[1..n, 1..k] of integer dist by [%[1]s, *] on Procs;
    d3 : array[1..2, 1..n, 1..k] of real dist by [*, %[1]s, *] on Procs;
    m, cnt : integer;
    s, x : real;
`, dist)
}

// genTopLevel emits the sequential SPMD section every node runs
// between the init loop and the foralls.  The VM compiles it and the
// walker oracle interprets it statement by statement, and a right-hand side is
// evaluated by the element's owner alone, so a one-processor run (which
// evaluates them all) is the oracle for every other P.  The section has
// a nested for over a declared and an implicit variable — z, which
// sibling loops declare afresh — an if/else, builtin calls, integer div
// and mod, reads of a replicated array, rank-2 stores to a real and an
// integer array, twice, each time followed by a forall that reads
// through the integer array (whose schedule must see the new contents),
// a replicated rank-3 array written and read and a distributed one
// written, a while that accumulates a later forall's upper bound in m,
// a while whose body runs a forall, a zero-trip for over m, which must
// leave m alone, a reduce whose result the very next statement reads,
// and a forall that reads an enclosing loop's implicit variable.
// Everything stored into a before the reduce is a multiple of 0.5, so
// that even a sum does not depend on the order of additions.
func genTopLevel(b *strings.Builder, r *rand.Rand) {
	fmt.Fprintf(b, "  for z in 1..k do w[z] := float(z) * 0.5 + %d.0; end;\n", r.Intn(3))
	fmt.Fprintf(b, "  for i in 1..n do\n")
	fmt.Fprintf(b, "    for z in 1..k do\n")
	fmt.Fprintf(b, "      if (i + z) mod %d = 0 then\n", 2+r.Intn(2))
	fmt.Fprintf(b, "        a[i] := max(w[z], float(i div z)) + %d.0;\n", r.Intn(3))
	fmt.Fprintf(b, "      else\n")
	fmt.Fprintf(b, "        b[i] := abs(w[i mod k + 1] - float(z));\n")
	fmt.Fprintf(b, "      end;\n")
	fmt.Fprintf(b, "    end;\n")
	fmt.Fprintf(b, "  end;\n")
	fmt.Fprintf(b, "  for y in 1..2 do\n")
	fmt.Fprintf(b, "    for i in 1..n do\n")
	fmt.Fprintf(b, "      for z in 1..k do\n")
	fmt.Fprintf(b, "        rm[i, z] := float(i * z) * 0.5 - w[z];\n")
	fmt.Fprintf(b, "        im[i, z] := (i * %d + z * y) mod n + 1;\n", 1+2*r.Intn(4))
	fmt.Fprintf(b, "      end;\n")
	fmt.Fprintf(b, "    end;\n")
	fmt.Fprintf(b, "    forall i in 1..n on a[i].loc do a[i] := a[i] + b[ im[i, 2] ] + rm[i, y]; end;\n")
	fmt.Fprintf(b, "  end;\n")
	fmt.Fprintf(b, "  for i in 1..n do\n")
	fmt.Fprintf(b, "    for z in 1..k do\n")
	fmt.Fprintf(b, "      for y in 1..2 do\n")
	fmt.Fprintf(b, "        t3[y, z, 1] := w[z] * float(y) + t3[y, z, 1];\n")
	fmt.Fprintf(b, "        d3[y, i, z] := t3[y, z, 1] - float(i);\n")
	fmt.Fprintf(b, "      end;\n")
	fmt.Fprintf(b, "    end;\n")
	fmt.Fprintf(b, "  end;\n")
	fmt.Fprintf(b, "  m := 0;\n")
	fmt.Fprintf(b, "  cnt := 0;\n")
	fmt.Fprintf(b, "  while cnt < n do\n")
	fmt.Fprintf(b, "    cnt := cnt + 1;\n")
	fmt.Fprintf(b, "    if cnt mod %d <> 0 then m := m + 1; end;\n", 2+r.Intn(3))
	fmt.Fprintf(b, "  end;\n")
	fmt.Fprintf(b, "  while cnt > n - 2 do\n")
	fmt.Fprintf(b, "    cnt := cnt - 1;\n")
	fmt.Fprintf(b, "    forall i in 1..n on b[i].loc do b[i] := b[i] + float(cnt); end;\n")
	fmt.Fprintf(b, "  end;\n")
	fmt.Fprintf(b, "  for m in %d..0 do cnt := 0; end;\n", 1+r.Intn(3))
	fmt.Fprintf(b, "  reduce %s(a) into s;\n", []string{"sum", "max", "min"}[r.Intn(3)])
	fmt.Fprintf(b, "  x := s / float(n) + sqrt(float(m));\n")
	fmt.Fprintf(b, "  for z in 1..2 do\n")
	fmt.Fprintf(b, "    forall i in 1..m on a[i].loc do a[i] := a[i] + x * float(z); end;\n")
	fmt.Fprintf(b, "  end;\n")
}

// GenProgram builds a random but well-formed Kali program: a few
// arrays under random distributions, initialization loops, a stretch
// of sequential top-level code (genTopLevel), and a sequence of foralls
// mixing affine stencils and data-dependent gathers.  Results must not
// depend on the processor count — the fundamental guarantee of the
// global name space.
func GenProgram(r *rand.Rand) string {
	n := 8 + r.Intn(24)
	dists := []string{"block", "cyclic", fmt.Sprintf("block_cyclic(%d)", 1+r.Intn(4))}
	distA := dists[r.Intn(len(dists))]
	distB := dists[r.Intn(len(dists))]

	var b strings.Builder
	fmt.Fprintf(&b, "processors Procs : array[1..P] with P in 1..64;\n")
	fmt.Fprintf(&b, "const n = %d;\n", n)
	fmt.Fprintf(&b, "      k = %d;\n", 2+r.Intn(4))
	fmt.Fprintf(&b, "var a : array[1..n] of real dist by [%s] on Procs;\n", distA)
	fmt.Fprintf(&b, "    b : array[1..n] of real dist by [%s] on Procs;\n", distB)
	// perm drives subscripts inside "forall ... on b[i].loc", so it
	// must travel with b (the language's alignment rule for integer
	// subscript arrays).
	fmt.Fprintf(&b, "    perm : array[1..n] of integer dist by [%s] on Procs;\n", distB)
	fmt.Fprintf(&b, "    i : integer;\n")
	b.WriteString(topLevelDecls(distA))
	fmt.Fprintf(&b, "begin\n")
	fmt.Fprintf(&b, "  for i in 1..n do\n")
	fmt.Fprintf(&b, "    a[i] := float(i) * %d.0;\n", 1+r.Intn(5))
	fmt.Fprintf(&b, "    b[i] := float(i * i);\n")
	fmt.Fprintf(&b, "    perm[i] := (i * %d) mod n + 1;\n", 1+2*r.Intn(4)) // odd-ish stride
	fmt.Fprintf(&b, "  end;\n")
	genTopLevel(&b, r)

	stmts := 1 + r.Intn(3)
	for s := 0; s < stmts; s++ {
		switch r.Intn(3) {
		case 0: // affine stencil a[i] := b[i+c] + a[i]
			c := r.Intn(3) - 1
			lo, hi := 1, n
			if c > 0 {
				hi = n - c
			} else {
				lo = 1 - c
			}
			sub := "i"
			if c > 0 {
				sub = fmt.Sprintf("i+%d", c)
			} else if c < 0 {
				sub = fmt.Sprintf("i-%d", -c)
			}
			fmt.Fprintf(&b, "  forall i in %d..%d on a[i].loc do\n", lo, hi)
			fmt.Fprintf(&b, "    a[i] := b[%s] + a[i];\n", sub)
			fmt.Fprintf(&b, "  end;\n")
		case 1: // indirect gather b[i] := a[perm[i]]
			fmt.Fprintf(&b, "  forall i in 1..n on b[i].loc do b[i] := a[ perm[i] ]; end;\n")
		default: // strided update on even points
			fmt.Fprintf(&b, "  forall i in 1..n div 2 on a[2*i].loc do\n")
			fmt.Fprintf(&b, "    a[2*i] := a[2*i] * 0.5 + b[2*i-1];\n")
			fmt.Fprintf(&b, "  end;\n")
		}
	}
	fmt.Fprintf(&b, "end.\n")
	return b.String()
}

// GenVMProgram builds a random program that stresses the bytecode
// compiler beyond the plain stencils of GenProgram: forall bodies with
// local variables, if/else with boolean connectives, inner for loops,
// builtin calls, unary minus, and integer div/mod — every construct
// the VM lowers — after the same sequential top-level stretch
// (genTopLevel).  The loop shapes also straddle every decision the
// VM's segment kernel makes: block distributions (rows resolve to local
// spans) against cyclic ones (they cannot: per-element fallback), a
// collapsed [dist, *] matrix read through an inner loop, unit-stride
// subscripts against strided and indirect ones, stores to arrays the
// body never loads (direct) against stores to arrays it also reads
// (logged: copy-in/copy-out), stores under a condition, a
// straight-line body the VM runs column-wise, and a shifted stencil
// whose boundary runs the VM takes against local rows and runs of the
// receive buffer.  Programs
// use a 1-D processor array and run on any P; GenVMProgram2D is the
// rank-2 counterpart.
func GenVMProgram(r *rand.Rand) string {
	n := 8 + r.Intn(24)
	k := 2 + r.Intn(4)
	dists := []string{"block", "cyclic", fmt.Sprintf("block_cyclic(%d)", 1+r.Intn(4))}
	distA := dists[r.Intn(len(dists))]
	distB := dists[r.Intn(len(dists))]

	var b strings.Builder
	fmt.Fprintf(&b, "processors Procs : array[1..P] with P in 1..64;\n")
	fmt.Fprintf(&b, "const n = %d;\n", n)
	fmt.Fprintf(&b, "      k = %d;\n", k)
	fmt.Fprintf(&b, "var a : array[1..n] of real dist by [%s] on Procs;\n", distA)
	fmt.Fprintf(&b, "    b : array[1..n] of real dist by [%s] on Procs;\n", distB)
	fmt.Fprintf(&b, "    perm : array[1..n] of integer dist by [%s] on Procs;\n", distB)
	// mat's rows travel with a (same first-dimension distribution), so
	// mat[i,q] under "on a[i].loc" is an aligned, communication-free read.
	fmt.Fprintf(&b, "    mat : array[1..n, 1..k] of real dist by [%s, *] on Procs;\n", distA)
	fmt.Fprintf(&b, "    i, q : integer;\n")
	b.WriteString(topLevelDecls(distA))
	fmt.Fprintf(&b, "begin\n")
	fmt.Fprintf(&b, "  for i in 1..n do\n")
	fmt.Fprintf(&b, "    a[i] := float(i) * %d.0 - %d.5;\n", 1+r.Intn(5), r.Intn(3))
	fmt.Fprintf(&b, "    b[i] := float(i * i) / %d.0;\n", 2+r.Intn(3))
	fmt.Fprintf(&b, "    perm[i] := (i * %d) mod n + 1;\n", 1+2*r.Intn(4))
	fmt.Fprintf(&b, "    for q in 1..k do mat[i,q] := float(i) / float(q + %d); end;\n", r.Intn(3))
	fmt.Fprintf(&b, "  end;\n")
	genTopLevel(&b, r)

	stmts := 1 + r.Intn(3)
	for s := 0; s < stmts; s++ {
		switch r.Intn(11) {
		case 0: // affine stencil with a const-folded coefficient
			c := r.Intn(3) - 1
			lo, hi := 1, n
			sub := "i"
			if c > 0 {
				hi, sub = n-c, fmt.Sprintf("i+%d", c)
			} else if c < 0 {
				lo, sub = 1-c, fmt.Sprintf("i-%d", -c)
			}
			fmt.Fprintf(&b, "  forall i in %d..%d on a[i].loc do\n", lo, hi)
			fmt.Fprintf(&b, "    a[i] := b[%s] * (1.0 / float(k)) + a[i];\n", sub)
			fmt.Fprintf(&b, "  end;\n")
		case 1: // indirect gather through perm
			fmt.Fprintf(&b, "  forall i in 1..n on b[i].loc do b[i] := a[ perm[i] ]; end;\n")
		case 2: // locals, builtins, if/else with and/or
			fmt.Fprintf(&b, "  forall i in 1..n on a[i].loc do\n")
			fmt.Fprintf(&b, "    var t : real; m : integer;\n")
			fmt.Fprintf(&b, "    t := abs(b[i]) + sqrt(abs(a[i]));\n")
			fmt.Fprintf(&b, "    m := trunc(t) mod k + 1;\n")
			fmt.Fprintf(&b, "    if (t > float(m)) and (i mod 2 = 0) then\n")
			fmt.Fprintf(&b, "      a[i] := min(t, a[i]) - float(m);\n")
			fmt.Fprintf(&b, "    else\n")
			fmt.Fprintf(&b, "      a[i] := max(t * 0.5, -a[i]);\n")
			fmt.Fprintf(&b, "    end;\n")
			fmt.Fprintf(&b, "  end;\n")
		case 3: // inner for loop accumulating into a local
			fmt.Fprintf(&b, "  forall i in 1..n on a[i].loc do\n")
			fmt.Fprintf(&b, "    var s2 : real; q : integer;\n")
			fmt.Fprintf(&b, "    s2 := 0.0;\n")
			fmt.Fprintf(&b, "    for q in 1..k do\n")
			fmt.Fprintf(&b, "      s2 := s2 + b[i] * float(q);\n")
			fmt.Fprintf(&b, "    end;\n")
			fmt.Fprintf(&b, "    a[i] := s2 / float(k);\n")
			fmt.Fprintf(&b, "  end;\n")
		case 4: // store to an array the body never loads
			fmt.Fprintf(&b, "  forall i in 1..n on a[i].loc do\n")
			fmt.Fprintf(&b, "    a[i] := float(i mod k) * 0.5 + b[i];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 5: // copy-in/copy-out: every read sees the pre-loop a
			fmt.Fprintf(&b, "  forall i in 1..n-1 on a[i].loc do\n")
			fmt.Fprintf(&b, "    a[i] := a[i+1] * 0.5 + a[i];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 6: // row sums over the collapsed dimension
			fmt.Fprintf(&b, "  forall i in 1..n on a[i].loc do\n")
			fmt.Fprintf(&b, "    var s2 : real; q : integer;\n")
			fmt.Fprintf(&b, "    s2 := 0.0;\n")
			fmt.Fprintf(&b, "    for q in 1..k do\n")
			fmt.Fprintf(&b, "      s2 := s2 + mat[i,q] * float(q);\n")
			fmt.Fprintf(&b, "    end;\n")
			fmt.Fprintf(&b, "    a[i] := s2;\n")
			fmt.Fprintf(&b, "  end;\n")
		case 7: // shifted placement, conditional shifted store
			fmt.Fprintf(&b, "  forall i in 1..n-1 on b[i+1].loc do\n")
			fmt.Fprintf(&b, "    if i mod %d = 0 then\n", 2+r.Intn(2))
			fmt.Fprintf(&b, "      b[i+1] := a[i] + 1.0;\n")
			fmt.Fprintf(&b, "    end;\n")
			fmt.Fprintf(&b, "  end;\n")
		case 8: // strided update with integer arithmetic in subscripts
			fmt.Fprintf(&b, "  forall i in 1..n div 2 on a[2*i].loc do\n")
			fmt.Fprintf(&b, "    a[2*i] := a[2*i] * 0.5 + b[2*i-1];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 9: // shifted stencil: boundary runs of the reads of b
			c := 1 + r.Intn(2)
			fmt.Fprintf(&b, "  forall i in 1..n-%d on a[i+%d].loc do\n", c+2, c)
			fmt.Fprintf(&b, "    a[i+%d] := 0.5*b[i] + 0.25*b[i+%d] - b[i+%d] * 0.125;\n", c, c+1, c+2)
			fmt.Fprintf(&b, "  end;\n")
		default: // straight-line, every access in the row form: column-wise
			fmt.Fprintf(&b, "  forall i in 2..n-1 on a[i].loc do\n")
			fmt.Fprintf(&b, "    var t : real; m : integer;\n")
			fmt.Fprintf(&b, "    m := (i - k) * %d;\n", 1+r.Intn(3))
			fmt.Fprintf(&b, "    t := t + sqrt(abs(b[i-1])) - b[i+1] / float(k + i);\n")
			fmt.Fprintf(&b, "    a[i] := min(t, float(-m)) * x + max(b[i], float(trunc(t)));\n")
			fmt.Fprintf(&b, "  end;\n")
		}
	}
	fmt.Fprintf(&b, "end.\n")
	return b.String()
}

// GenVMProgram2D is GenVMProgram for rank-2 foralls: a fixed 2×2
// processor grid (so it needs P >= 4), arrays tiled by a random pair of
// per-dimension distributions, and loop nests whose row segments the
// VM's segment kernel can or cannot run against raw local rows — a
// whole-array copy, the five-point stencil under a shifted on clause,
// an in-place smooth (stores to an array the body reads), a body with
// locals, an inner loop, a condition and a replicated coefficient
// vector, row-strided and column-strided placements, on square arrays
// a transposed (indirect) read, and a straight-line body that uses both
// index variables as values.
func GenVMProgram2D(r *rand.Rand) string {
	ny := 6 + r.Intn(12)
	nx := ny
	if r.Intn(2) == 0 {
		nx = 6 + r.Intn(12)
	}
	k := 2 + r.Intn(3)
	pick := func() string {
		switch r.Intn(4) {
		case 0:
			return "cyclic"
		case 1:
			return fmt.Sprintf("block_cyclic(%d)", 1+r.Intn(3))
		default:
			return "block"
		}
	}
	dI, dJ := pick(), pick()
	eI, eJ := pick(), pick()

	var b strings.Builder
	fmt.Fprintf(&b, "processors Procs : array[1..2, 1..2];\n")
	fmt.Fprintf(&b, "const ny = %d;\n      nx = %d;\n      k = %d;\n", ny, nx, k)
	fmt.Fprintf(&b, "var u, v, w : array[1..ny, 1..nx] of real dist by [%s, %s] on Procs;\n", dI, dJ)
	fmt.Fprintf(&b, "    x : array[1..ny, 1..nx] of real dist by [%s, %s] on Procs;\n", eI, eJ)
	fmt.Fprintf(&b, "    c1 : array[1..nx] of real;\n")
	fmt.Fprintf(&b, "    i, j, q : integer;\n")
	fmt.Fprintf(&b, "    alpha : real;\n")
	fmt.Fprintf(&b, "begin\n")
	fmt.Fprintf(&b, "  alpha := 0.%d5;\n", 1+r.Intn(3))
	fmt.Fprintf(&b, "  for j in 1..nx do c1[j] := float(j mod %d) + 0.5; end;\n", 2+r.Intn(4))
	fmt.Fprintf(&b, "  for i in 1..ny do\n")
	fmt.Fprintf(&b, "    for j in 1..nx do\n")
	fmt.Fprintf(&b, "      u[i,j] := float((i*%d + j*7) mod 11);\n", 3+r.Intn(10))
	fmt.Fprintf(&b, "      v[i,j] := float(i) / float(j + %d);\n", r.Intn(3))
	fmt.Fprintf(&b, "      x[i,j] := float(i - j) * 0.25;\n")
	fmt.Fprintf(&b, "    end;\n")
	fmt.Fprintf(&b, "  end;\n")

	stmts := 1 + r.Intn(3)
	for s := 0; s < stmts; s++ {
		kind := r.Intn(8)
		if kind == 6 && nx != ny {
			kind = 0
		}
		switch kind {
		case 0: // whole-array copy, aligned
			fmt.Fprintf(&b, "  forall i in 1..ny, j in 1..nx on v[i,j].loc do\n")
			fmt.Fprintf(&b, "    v[i,j] := u[i,j];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 1: // five-point stencil, shifted on clause
			fmt.Fprintf(&b, "  forall i in 1..ny-2, j in 1..nx-2 on u[i+1,j+1].loc do\n")
			fmt.Fprintf(&b, "    u[i+1,j+1] := alpha*v[i,j+1] + alpha*v[i+1,j] + alpha*v[i+1,j+2] + alpha*v[i+2,j+1];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 2: // in-place smooth: reads see the pre-loop u
			fmt.Fprintf(&b, "  forall i in 2..ny-1, j in 2..nx-1 on u[i,j].loc do\n")
			fmt.Fprintf(&b, "    u[i,j] := 0.5*u[i,j] + 0.125*(u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1]);\n")
			fmt.Fprintf(&b, "  end;\n")
		case 3: // locals, inner loop, condition, replicated vector, cross-distribution read
			fmt.Fprintf(&b, "  forall i in 1..ny, j in 1..nx on w[i,j].loc do\n")
			fmt.Fprintf(&b, "    var t : real; q : integer;\n")
			fmt.Fprintf(&b, "    t := x[i,j];\n")
			fmt.Fprintf(&b, "    for q in 1..k do\n")
			fmt.Fprintf(&b, "      t := t + v[i,j] * float(q);\n")
			fmt.Fprintf(&b, "    end;\n")
			fmt.Fprintf(&b, "    if (t > c1[j]) and ((i + j) mod 2 = 0) then\n")
			fmt.Fprintf(&b, "      w[i,j] := min(t, c1[j] * float(k));\n")
			fmt.Fprintf(&b, "    else\n")
			fmt.Fprintf(&b, "      w[i,j] := -t;\n")
			fmt.Fprintf(&b, "    end;\n")
			fmt.Fprintf(&b, "  end;\n")
		case 4: // row-strided placement: rows 2i, unit stride along the row
			fmt.Fprintf(&b, "  forall i in 1..ny div 2, j in 1..nx on w[2*i,j].loc do\n")
			fmt.Fprintf(&b, "    w[2*i,j] := v[2*i-1,j] + u[2*i,j];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 5: // column-strided placement: no unit stride along the row
			fmt.Fprintf(&b, "  forall i in 1..ny, j in 1..nx div 2 on w[i,2*j].loc do\n")
			fmt.Fprintf(&b, "    w[i,2*j] := u[i,2*j] * 0.5 + c1[j];\n")
			fmt.Fprintf(&b, "  end;\n")
		case 6: // transposed read: data-dependent in both variables, inspector
			fmt.Fprintf(&b, "  forall i in 1..ny, j in 1..nx on w[i,j].loc do\n")
			fmt.Fprintf(&b, "    w[i,j] := v[j,i] + x[i,j];\n")
			fmt.Fprintf(&b, "  end;\n")
		default: // straight-line with both index variables as values and a local
			fmt.Fprintf(&b, "  forall i in 1..ny, j in 1..nx on w[i,j].loc do\n")
			fmt.Fprintf(&b, "    var t : real;\n")
			fmt.Fprintf(&b, "    t := v[i,j] * float(i) + float(j + k) * alpha;\n")
			fmt.Fprintf(&b, "    w[i,j] := max(t, u[i,j]) + abs(c1[j]);\n")
			fmt.Fprintf(&b, "  end;\n")
		}
	}
	fmt.Fprintf(&b, "end.\n")
	return b.String()
}
