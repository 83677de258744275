package bench

import (
	"fmt"
	"os"
	"sync"

	"kali/internal/alloctest"
	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/server"
)

// Tenants measures the multi-tenant schedule server: N concurrent
// tenants running against one machine pool and shared schedule store,
// in three regimes — cold with every tenant a distinct shape (no
// sharing possible), cold with identical shapes (cross-tenant sharing
// plus singleflight), and warm-started from a persisted cache
// directory (zero builds).
//
// The builds / store hits / disk hits columns are exact: singleflight
// makes the build count a function of (shapes × nodes), not of tenant
// interleaving, so the CI baseline gates them without tolerance, each
// in its own direction.  allocs/run is the steady-state allocation
// count of one warm tenant run.  What a request costs in host time
// under concurrent clients is benchmark/'s tenants-http workload.
func Tenants(opt Options) *Table {
	p, tenants, n, sweeps, allocReps := 8, 16, 4096, 4, 50
	pool := 4
	if opt.Quick {
		p, tenants, n, sweeps, allocReps = 4, 8, 512, 3, 20
	}
	t := &Table{
		ID:     "tenants",
		Title:  "concurrent multi-tenant schedule server: sharing, persistence",
		Labels: []string{"scenario", "tenants"},
		Columns: []Column{exact("builds", "count", 0), benefit("store hits", "count", 0),
			benefit("disk hits", "count", 0), benefit("hit rate", "%", 1),
			exact("allocs/run", "count", 0)},
		Notes: []string{
			fmt.Sprintf("%d tenants on a %d-machine pool, P=%d, jacobi+copyback over n=%d (%d sweeps); hit rate = (store+disk hits)/lookups",
				tenants, pool, p, n, sweeps),
		},
	}

	sameShape := make([]int, tenants)
	distinct := make([]int, tenants)
	for k := range sameShape {
		sameShape[k] = n
		distinct[k] = n + 32*(k+1)
	}

	newServer := func(dir string) *server.Server {
		srv, err := server.New(server.Config{P: p, Machines: pool, Params: machine.Ideal(), CacheDir: dir})
		if err != nil {
			panic(err)
		}
		return srv
	}

	runScenario := func(name string, srv *server.Server, ns []int) {
		var wg sync.WaitGroup
		for k := 0; k < tenants; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if _, err := srv.RunFunc(tenantsWorkload(ns[k], sweeps)); err != nil {
					panic(err)
				}
			}(k)
		}
		wg.Wait()
		st := srv.Stats().Store
		lookups := st.Hits + st.DiskHits + st.Builds
		hitRate := 0.0
		if lookups > 0 {
			hitRate = 100 * float64(st.Hits+st.DiskHits) / float64(lookups)
		}
		t.add([]string{name, fmt.Sprint(tenants)},
			float64(st.Builds), float64(st.Hits), float64(st.DiskHits), hitRate,
			tenantAllocsPerRun(srv, pool, ns[0], sweeps, allocReps))
	}

	runScenario("cold distinct", newServer(""), distinct)
	runScenario("cold shared", newServer(""), sameShape)

	// Warm start: populate a cache directory with one run, then serve
	// the same shape from a brand-new server on that directory — every
	// schedule revives from disk, so the warm server builds nothing.
	dir, err := os.MkdirTemp("", "kali-tenants-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	seed := newServer(dir)
	if _, err := seed.RunFunc(tenantsWorkload(n, sweeps)); err != nil {
		panic(err)
	}
	runScenario("warm disk", newServer(dir), sameShape)
	return t
}

// tenantsWorkload is one tenant's program: alternating Jacobi and
// copy-back sweeps — two shareable compile-time shapes per tenant.
func tenantsWorkload(n, sweeps int) func(*core.Context) {
	return func(ctx *core.Context) {
		a := ctx.BlockArray("a", n)
		b := ctx.BlockArray("b", n)
		a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
		b.EachLocal(func(gl int) { b.Set1(gl, 0) })
		jac := &forall.Loop{
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
			ctx.Forall(jac)
			ctx.Forall(back)
		}
	}
}

// tenantAllocsPerRun measures steady-state allocations of one warm
// tenant run: sequential replays under an alloctest.Meter.  The server
// hands its machines out in turn and each keeps its own engine state,
// so the warmup goes twice round the pool.
func tenantAllocsPerRun(srv *server.Server, pool, n, sweeps, reps int) float64 {
	prog := tenantsWorkload(n, sweeps)
	run := func() {
		if _, err := srv.RunFunc(prog); err != nil {
			panic(err)
		}
	}
	var m alloctest.Meter
	m.Enter()
	for r := 0; r < 2*pool; r++ {
		run()
	}
	m.Mark()
	for r := 0; r < reps; r++ {
		run()
	}
	return float64(m.Leave()) / float64(reps)
}
