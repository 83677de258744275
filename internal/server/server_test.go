package server

import (
	"sync"
	"testing"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
)

// tenantResult is what one tenant observed: the gathered array and the
// structural half of the report.  Simulated times are deliberately
// excluded — adopting a schedule from the store charges instantiation
// cost instead of build cost, so times depend on which tenant wins the
// build race; contents and traffic must not.
type tenantResult struct {
	out   []float64
	msgs  int
	bytes int
}

// jacobiTenant is the Go-API workload tenants run: a few Jacobi sweeps
// over n points starting from a per-tenant initial scale, with the
// final array gathered.  Identical (n, sweeps) across tenants means
// identical schedule structure — shareable — while scale differences
// keep the *data* distinct, so any cross-tenant buffer bleed shows up
// as wrong values.
func jacobiTenant(n int, scale float64, sweeps int, res *tenantResult, mu *sync.Mutex) func(*core.Context) {
	return func(ctx *core.Context) {
		a := ctx.BlockArray("a", n)
		b := ctx.BlockArray("b", n)
		a.EachLocal(func(gl int) { a.Set1(gl, scale*float64(gl)) })
		b.EachLocal(func(gl int) { b.Set1(gl, 0) })
		loop := &forall.Loop{
			Name: "jacobi", Lo: 2, Hi: n - 1,
			On: b, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{
				{Array: a, Affine: &analysis.Affine{A: 1, C: -1}},
				{Array: a, Affine: &analysis.Affine{A: 1, C: 1}},
			},
			Body: func(i int, e *forall.Env) {
				e.Write(b, i, 0.5*(e.Read(a, i-1)+e.Read(a, i+1)))
			},
		}
		back := &forall.Loop{
			Name: "copyback", Lo: 1, Hi: n,
			On: a, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: b, Affine: &analysis.Affine{A: 1, C: 0}}},
			Body: func(i int, e *forall.Env) {
				e.Write(a, i, e.Read(b, i))
			},
		}
		for s := 0; s < sweeps; s++ {
			ctx.Forall(loop)
			ctx.Forall(back)
		}
		mu.Lock()
		b.EachLocal(func(gl int) { res.out[gl] = b.Get1(gl) })
		mu.Unlock()
	}
}

// solo runs the same workload isolated — fresh machine, no shared
// store — producing the oracle a server tenant must match exactly.
func solo(t *testing.T, p, n int, scale float64, sweeps int) tenantResult {
	t.Helper()
	res := tenantResult{out: make([]float64, n+1)}
	var mu sync.Mutex
	rep := core.Run(core.Config{P: p, Params: machine.Ideal()},
		jacobiTenant(n, scale, sweeps, &res, &mu))
	res.msgs, res.bytes = rep.MsgsSent, rep.BytesSent
	return res
}

func checkTenant(t *testing.T, id int, got tenantResult, want tenantResult) {
	t.Helper()
	if got.msgs != want.msgs || got.bytes != want.bytes {
		t.Errorf("tenant %d: traffic %d msgs/%d bytes, solo %d msgs/%d bytes",
			id, got.msgs, got.bytes, want.msgs, want.bytes)
	}
	for i := range want.out {
		if got.out[i] != want.out[i] {
			t.Errorf("tenant %d: b[%d] = %g, solo %g", id, i, got.out[i], want.out[i])
			return
		}
	}
}

// TestConcurrentIdenticalTenants: K tenants racing the same program
// through one server match the isolated oracle bit-for-bit, and the
// store builds each schedule exactly once machine-wide (singleflight).
func TestConcurrentIdenticalTenants(t *testing.T) {
	const p, n, K, sweeps = 4, 64, 12, 3
	want := solo(t, p, n, 1, sweeps)
	srv, err := New(Config{P: p, Machines: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]tenantResult, K)
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		results[k] = tenantResult{out: make([]float64, n+1)}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mu sync.Mutex
			rep, err := srv.RunFunc(jacobiTenant(n, 1, sweeps, &results[k], &mu))
			if err != nil {
				t.Errorf("tenant %d: %v", k, err)
				return
			}
			results[k].msgs, results[k].bytes = rep.MsgsSent, rep.BytesSent
		}(k)
	}
	wg.Wait()
	for k := range results {
		checkTenant(t, k, results[k], want)
	}
	// Two shareable shapes (jacobi, copyback) on p nodes: exactly 2p
	// builds however many tenants raced, everything else adopted.
	st := srv.Stats()
	if st.Store.Builds != 2*p {
		t.Fatalf("store builds = %d, want %d (singleflight)", st.Store.Builds, 2*p)
	}
	if wantHits := int64((K - 1) * 2 * p); st.Store.Hits != wantHits {
		t.Fatalf("store hits = %d, want %d", st.Store.Hits, wantHits)
	}
	if st.Runs != K || st.Errs != 0 {
		t.Fatalf("stats runs=%d errs=%d, want %d/0", st.Runs, st.Errs, K)
	}
}

// TestConcurrentDistinctTenantsNoBleed: tenants with different data on
// both shared shapes (same n, different scale — schedules shared) and
// private shapes (different n) all match their own oracle: schedule
// sharing must never leak one tenant's elements into another's arrays.
func TestConcurrentDistinctTenantsNoBleed(t *testing.T) {
	const p, K, sweeps = 4, 12, 2
	srv, err := New(Config{P: p, Machines: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]int, K)
	scales := make([]float64, K)
	wants := make([]tenantResult, K)
	for k := 0; k < K; k++ {
		ns[k] = 48 + 16*(k%3) // three shapes shared across tenants
		scales[k] = float64(k + 1)
		wants[k] = solo(t, p, ns[k], scales[k], sweeps)
	}
	results := make([]tenantResult, K)
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		results[k] = tenantResult{out: make([]float64, ns[k]+1)}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mu sync.Mutex
			rep, err := srv.RunFunc(jacobiTenant(ns[k], scales[k], sweeps, &results[k], &mu))
			if err != nil {
				t.Errorf("tenant %d: %v", k, err)
				return
			}
			results[k].msgs, results[k].bytes = rep.MsgsSent, rep.BytesSent
		}(k)
	}
	wg.Wait()
	for k := range results {
		checkTenant(t, k, results[k], wants[k])
	}
	if st := srv.Stats(); st.Store.Hits == 0 {
		t.Fatal("no cross-tenant sharing despite repeated shapes")
	}
}

// TestConcurrentChurn: tenants keep matching their oracle while
// neighbors invalidate schedules, redistribute arrays mid-run, and a
// tiny store capacity forces eviction churn underneath everyone.
func TestConcurrentChurn(t *testing.T) {
	const p, n, K, sweeps = 4, 64, 8, 3
	want := solo(t, p, n, 1, sweeps)
	srv, err := New(Config{P: p, Machines: 4, Params: machine.Ideal(), StoreCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Perturbers: redistribute block→cyclic→block mid-run, invalidate
	// their schedule cache between sweeps, and cycle through distinct
	// bounds so plans keep entering (and evicting from) the store.
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				m := 16 + 4*((k+round)%5)
				_, err := srv.RunFunc(func(ctx *core.Context) {
					a := ctx.BlockArray("pa", m)
					a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
					shift := &forall.Loop{
						Name: "pshift", Lo: 1, Hi: m - 1,
						On: a, OnF: analysis.Identity,
						Reads: []forall.ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
						Body: func(i int, e *forall.Env) {
							e.Write(a, i, e.Read(a, i+1))
						},
					}
					ctx.Forall(shift)
					ctx.Redistribute(a, dist.CyclicDim())
					ctx.Eng.Invalidate("pshift")
					ctx.Forall(shift)
					ctx.Redistribute(a, dist.BlockDim())
					ctx.Eng.InvalidateAll()
					ctx.Forall(shift)
				})
				if err != nil {
					t.Errorf("perturber %d round %d: %v", k, round, err)
				}
			}
		}(k)
	}
	// Victims: the plain workload, checked against the oracle.
	results := make([]tenantResult, K)
	for k := 0; k < K; k++ {
		results[k] = tenantResult{out: make([]float64, n+1)}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mu sync.Mutex
			rep, err := srv.RunFunc(jacobiTenant(n, 1, sweeps, &results[k], &mu))
			if err != nil {
				t.Errorf("tenant %d: %v", k, err)
				return
			}
			results[k].msgs, results[k].bytes = rep.MsgsSent, rep.BytesSent
		}(k)
	}
	wg.Wait()
	for k := range results {
		checkTenant(t, k, results[k], want)
	}
}

// TestPoolStatsMidExecution: the payload pool and store counters are
// readable while tenants are mid-flight — the data-race regression
// test for comm.BufPool.Stats (run under -race in CI).
func TestPoolStatsMidExecution(t *testing.T) {
	const p, n, K = 4, 96, 8
	srv, err := New(Config{P: p, Machines: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Stats()
			if st.Pool.Gets < st.Pool.News {
				t.Errorf("pool gets %d < news %d", st.Pool.Gets, st.Pool.News)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		res := tenantResult{out: make([]float64, n+1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mu sync.Mutex
			if _, err := srv.RunFunc(jacobiTenant(n, 1, 4, &res, &mu)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if st := srv.Stats(); st.Pool.Gets == 0 {
		t.Fatal("payload pool never used — counter wiring broken")
	}
	// The counters are the server's own machines', not the process's.
	idle, err := New(Config{P: p, Machines: 1, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if st := idle.Stats(); st.Pool.Gets != 0 {
		t.Fatalf("a server that ran nothing reports %d pool gets", st.Pool.Gets)
	}
}

// TestServerRecoversAfterTenantPanic: a panicking tenant surfaces as
// an error, and the pooled machine it poisoned runs the next tenant
// normally (pool of one forces reuse of exactly that machine).
func TestServerRecoversAfterTenantPanic(t *testing.T) {
	const p, n = 4, 48
	want := solo(t, p, n, 1, 2)
	srv, err := New(Config{P: p, Machines: 1, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunFunc(func(ctx *core.Context) {
		if ctx.ID() == 1 {
			panic("tenant bug")
		}
		ctx.Barrier()
	}); err == nil {
		t.Fatal("panicking tenant reported no error")
	}
	res := tenantResult{out: make([]float64, n+1)}
	var mu sync.Mutex
	rep, err := srv.RunFunc(jacobiTenant(n, 1, 2, &res, &mu))
	if err != nil {
		t.Fatalf("run after panic: %v", err)
	}
	res.msgs, res.bytes = rep.MsgsSent, rep.BytesSent
	checkTenant(t, 0, res, want)
	if st := srv.Stats(); st.Errs != 1 || st.Runs != 2 {
		t.Fatalf("stats runs=%d errs=%d, want 2/1", st.Runs, st.Errs)
	}
}

// TestWarmStartKaliServer: a second server on the same cache directory
// revives every schedule from disk — its first tenant builds nothing —
// and produces bit-identical arrays.
func TestWarmStartKaliServer(t *testing.T) {
	const src = `processors Procs : array[1..P] with P in 1..64;
const n = 24;
      m = 23;
var a : array[1..n] of real dist by [block] on Procs;
    b : array[1..n] of real dist by [cyclic] on Procs;
    i : integer;
begin
  for i in 1..n do
    a[i] := float(i) * 2.0;
    b[i] := 0.0;
  end;
  forall i in 1..m on b[i].loc do
    b[i] := a[i+1] + a[i];
  end;
end.
`
	dir := t.TempDir()
	cold, err := New(Config{P: 4, Machines: 2, Params: machine.Ideal(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := cold.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Report.Builds == 0 {
		t.Fatal("cold run built nothing")
	}

	warm, err := New(Config{P: 4, Machines: 2, Params: machine.Ideal(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := warm.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Builds != 0 {
		t.Fatalf("warm run built %d schedules, want 0", res2.Report.Builds)
	}
	if res2.Report.SharedHits == 0 {
		t.Fatal("warm run adopted nothing")
	}
	if st := warm.Stats(); st.Store.DiskHits == 0 {
		t.Fatalf("warm store stats %+v: no disk hits", st.Store)
	}
	for name, want := range res1.Arrays {
		got := res2.Arrays[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %g warm, want %g cold", name, i+1, got[i], want[i])
			}
		}
	}
}

// TestCompileErrorDoesNotHoldMachine: a bad program fails before
// acquiring a machine, so even a busy pool rejects it immediately.
func TestCompileErrorDoesNotHoldMachine(t *testing.T) {
	srv, err := New(Config{P: 2, Machines: 1, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run("this is not kali"); err == nil {
		t.Fatal("garbage compiled")
	}
	if st := srv.Stats(); st.Runs != 0 {
		t.Fatalf("compile failure counted as a run (runs=%d)", st.Runs)
	}
}
