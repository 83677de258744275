package main

import (
	"fmt"
	"math/rand"

	"kali/internal/mesh"
)

// Input generation.  Everything the program under test is given is
// made here from the seed: sources, meshes and the request mix.  The
// seed changes the data (initial values, mesh numbering, request
// order), never the amount of work, so runs with different seeds
// measure the same thing.

// saltOf derives the data salt the generated sources embed.
func saltOf(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(1_000_000)
}

// jacobi2dSource is a five-point relaxation on a 2×2 processor grid
// (testdata/jacobi2d.kali with size, sweep count and boundary data as
// parameters): a whole-array copy forall and a shifted-on-clause
// relaxation forall per sweep.
func jacobi2dSource(n, sweeps, salt int) string {
	return fmt.Sprintf(`processors Procs : array[1..2, 1..2];
const nx = %d;
      ny = %d;
      sweeps = %d;
      salt = %d;
var u, old : array[1..ny, 1..nx] of real dist by [block, block] on Procs;
    r, c, i, s : integer;
begin
    for r in 1..ny do
        for c in 1..nx do
            if (r = 1) or (r = ny) or (c = 1) or (c = nx) then
                i := (r-1)*nx + c;
                u[r,c] := 1.0 + float((i + salt) mod 7);
            end;
        end;
    end;
    for s in 1..sweeps do
        forall r in 1..ny, c in 1..nx on old[r,c].loc do
            old[r,c] := u[r,c];
        end;
        forall r in 1..ny-2, c in 1..nx-2 on u[r+1,c+1].loc do
            u[r+1,c+1] := 0.25*old[r,c+1] + 0.25*old[r+1,c] + 0.25*old[r+1,c+2] + 0.25*old[r+2,c+1];
        end;
    end;
end.
`, n, n, sweeps, salt)
}

// shiftSource is the paper's Figure 1 loop repeated: an affine shift,
// compile-time schedule, one boundary element per neighbour.
func shiftSource(n, sweeps, salt int) string {
	return fmt.Sprintf(`processors Procs : array[1..P] with P in 1..8;
const N = %d;
      sweeps = %d;
      salt = %d;
var A : array[1..N] of real dist by [block] on Procs;
    i, s : integer;
begin
    for i in 1..N do
        A[i] := float((i*3 + salt) mod 17);
    end;
    for s in 1..sweeps do
        forall i in 1..N-1 on A[i].loc do
            A[i] := A[i+1];
        end;
    end;
end.
`, n, sweeps, salt)
}

// gatherSource is a data-dependent gather through a salted
// permutation-like index array: every read is indirect, so the
// run-time inspector builds the schedule.
func gatherSource(n, salt int) string {
	return fmt.Sprintf(`processors Procs : array[1..P] with P in 1..8;
const n = %d;
      salt = %d;
var B, src : array[1..n] of real dist by [block] on Procs;
    idx : array[1..n] of integer dist by [block] on Procs;
    i : integer;
begin
    for i in 1..n do
        idx[i] := (i*7 + salt) mod n + 1;
        src[i] := float(i * i + salt mod 5);
    end;
    forall i in 1..n on B[i].loc do
        B[i] := src[ idx[i] ];
    end;
end.
`, n, salt)
}

// adiSource alternates row sweeps in [block,*] and column sweeps in
// [*,block], with a redistribute between them (testdata/adi.kali).
func adiSource(n, sweeps, salt int) string {
	return fmt.Sprintf(`processors Procs : array[1..P] with P in 1..8;
const n = %d;
      sweeps = %d;
      salt = %d;
var u : array[1..n, 1..n] of real dist by [block, *] on Procs;
    row : array[1..n] of real dist by [block] on Procs;
    r, c, s : integer;
begin
    for r in 1..n do
        for c in 1..n do
            u[r,c] := float((r*13 + c*7 + salt) mod 11);
        end;
    end;
    for s in 1..sweeps do
        forall r in 1..n on row[r].loc do
            var c2 : integer;
            for c2 in 2..n-1 do
                u[r,c2] := 0.25*u[r,c2-1] + 0.5*u[r,c2] + 0.25*u[r,c2+1];
            end;
        end;
        redistribute u as [*, block];
        forall c in 1..n on row[c].loc do
            var r2 : integer;
            for r2 in 2..n-1 do
                u[r2,c] := 0.25*u[r2-1,c] + 0.5*u[r2,c] + 0.25*u[r2+1,c];
            end;
        end;
        redistribute u as [block, *];
    end;
end.
`, n, sweeps, salt)
}

// genMeshes builds count shuffled unstructured side×side meshes, each
// numbered by its own seed drawn from the run seed — the adaptive-mesh
// regime, where every run meets a mesh it has not inspected before.
func genMeshes(seed int64, count, side int) []*mesh.Mesh {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]*mesh.Mesh, count)
	for k := range ms {
		ms[k] = mesh.Unstructured(side, side, true, rng.Int63())
	}
	return ms
}

// template is one of the tenant program shapes.
type template int

const (
	tmplShift template = iota
	tmplJacobi2D
	tmplGather
	tmplADI
	numTemplates
)

// tenantSweeps is the sweep count of the iterative tenant templates:
// tenants are tiny on purpose, the request cost is everything around
// the loops.
const tenantSweeps = 2

// tenantProgram is one generated request body with the answer the
// server must give for it.
type tenantProgram struct {
	tmpl  template
	n     int
	src   string
	print string    // the ?print= array
	want  []float64 // reference contents of that array
}

// side2D is the side of the two rank-2 templates for tenant size n:
// 16..31 for n in 16..79, so a 2-D tenant stays as tiny as a 1-D one
// and the latency tail is set by the server, not by which few large
// grids a seed happened to draw.
func side2D(n int) int { return 16 + (n-16)/4 }

func genTenantProgram(t template, n, salt int) *tenantProgram {
	p := &tenantProgram{tmpl: t, n: n}
	switch t {
	case tmplShift:
		p.src, p.print, p.want = shiftSource(n, tenantSweeps, salt), "A", refShift(n, tenantSweeps, salt)
	case tmplJacobi2D:
		p.src, p.print, p.want = jacobi2dSource(side2D(n), tenantSweeps, salt), "u", refJacobi2D(side2D(n), tenantSweeps, salt)
	case tmplGather:
		p.src, p.print, p.want = gatherSource(n, salt), "B", refGather(n, salt)
	case tmplADI:
		p.src, p.print, p.want = adiSource(side2D(n), tenantSweeps, salt), "u", refADI(side2D(n), tenantSweeps, salt)
	}
	return p
}

// Tenant sizes: four hot sizes per template take 80% of the requests,
// 64 cold sizes the rest (16 distinct sides for the rank-2 templates).
// 4 templates × 64 sizes × a few loop shapes each stays well below forall.DefaultStoreCap (4096 blueprints), so
// the shared store never evicts and its hit ratio measures sharing,
// not capacity.
var hotSizes = [4]int{24, 32, 48, 64}

const (
	coldLo    = 16
	coldCount = 64
	hotShare  = 0.8
)

// tenantMix is the table of every program a client may send.
type tenantMix struct {
	progs [numTemplates][coldCount]*tenantProgram // by template, n-coldLo
}

func genTenantMix(seed int64) *tenantMix {
	salt := saltOf(seed)
	m := &tenantMix{}
	for t := template(0); t < numTemplates; t++ {
		for k := 0; k < coldCount; k++ {
			m.progs[t][k] = genTenantProgram(t, coldLo+k, salt)
		}
	}
	return m
}

// draw picks the next request of a client's seeded stream.
func (m *tenantMix) draw(rng *rand.Rand) *tenantProgram {
	t := template(rng.Intn(int(numTemplates)))
	n := coldLo + rng.Intn(coldCount)
	if rng.Float64() < hotShare {
		n = hotSizes[rng.Intn(len(hotSizes))]
	}
	return m.progs[t][n-coldLo]
}

// clientRNG is client c's request stream for a run seed.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
}
