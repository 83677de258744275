package forall

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// runShiftWithStore runs the Figure 1 shift loop on a fresh P-node
// machine whose engines consult the given shared store, returning the
// gathered array and the builds/store-hits totals over all engines.
func runShiftWithStore(t *testing.T, n, p int, store *SharedStore) ([]float64, int, int) {
	t.Helper()
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	m := sim.MustNew(p, machine.Ideal())
	result := make([]float64, n+1)
	var mu sync.Mutex
	builds, storeHits := 0, 0
	m.Run(func(nd *machine.Node) {
		a := darray.New("A", d, nd)
		a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
		eng := NewEngine(nd)
		eng.Store = store
		eng.Run(&Loop{
			Name: "shift", Lo: 1, Hi: n - 1,
			On: a, OnF: analysis.Identity,
			Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
			Body: func(i int, e *Env) {
				e.Write(a, i, e.Read(a, i+1))
			},
		})
		mu.Lock()
		builds += eng.Builds()
		storeHits += eng.SharedHits()
		a.EachLocal(func(gl int) { result[gl] = a.Get1(gl) })
		mu.Unlock()
	})
	return result, builds, storeHits
}

func testKey(i int) shareKey {
	return shareKey{rank: 1, bounds: [4]int{1, 10 + i}, onF: analysis.Identity, nreads: 1, reads: uint64(i)}
}

// TestStoreSingleflight: K tenants asking for one key concurrently
// cause exactly one build; everyone else adopts.
func TestStoreSingleflight(t *testing.T) {
	const K = 16
	s := NewSharedStore(64, "")
	key := testKey(0)
	var buildCount sync.Map
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := s.getOrBuild(0, key, func() *plan {
				mu.Lock()
				calls++
				mu.Unlock()
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return &plan{rank: 1}
			})
			if p == nil {
				t.Error("nil plan")
			}
			buildCount.Store(p, true)
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("build ran %d times, want exactly 1", calls)
	}
	st := s.Stats()
	if st.Builds != 1 || st.Hits != K-1 {
		t.Fatalf("stats = %+v, want Builds=1 Hits=%d", st, K-1)
	}
	distinct := 0
	buildCount.Range(func(any, any) bool { distinct++; return true })
	if distinct != 1 {
		t.Fatalf("tenants saw %d distinct plans, want 1 shared", distinct)
	}
}

// TestStoreBuilderPanicReleasesWaiters: a failing builder must not
// wedge the inflight entry — waiters retry and one of them builds.
func TestStoreBuilderPanicReleasesWaiters(t *testing.T) {
	s := NewSharedStore(64, "")
	key := testKey(1)
	func() {
		defer func() { recover() }()
		s.getOrBuild(0, key, func() *plan { panic("tenant died mid-build") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p, hit := s.getOrBuild(0, key, func() *plan { return &plan{rank: 1} })
		if p == nil || hit {
			t.Errorf("retry after panic: p=%v hit=%v, want fresh build", p, hit)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after builder panic")
	}
}

// TestStoreDistinctKeys: different structures never coalesce.
func TestStoreDistinctKeys(t *testing.T) {
	s := NewSharedStore(64, "")
	for i := 0; i < 5; i++ {
		s.getOrBuild(0, testKey(i), func() *plan { return &plan{rank: 1} })
	}
	if st := s.Stats(); st.Builds != 5 || st.Hits != 0 || st.Entries != 5 {
		t.Fatalf("stats = %+v, want 5 builds, 0 hits, 5 entries", st)
	}
}

// TestStoreCrossTenantAdopt: a second program (fresh machine, fresh
// engines) sharing the store adopts every schedule the first built,
// with bit-identical results.
func TestStoreCrossTenantAdopt(t *testing.T) {
	const n, p = 24, 4
	s := NewSharedStore(64, "")
	want, builds1, _ := runShiftWithStore(t, n, p, s)
	if builds1 != p {
		t.Fatalf("first tenant: builds = %d, want %d", builds1, p)
	}
	got, builds2, hits2 := runShiftWithStore(t, n, p, s)
	if builds2 != 0 || hits2 != p {
		t.Fatalf("second tenant: builds=%d storeHits=%d, want 0 and %d", builds2, hits2, p)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("A[%d] = %g adopted, want %g built", i, got[i], want[i])
		}
	}
}

// TestStoreAdoptersSharePlanNotBuffers: programs running at the same
// time on one store hold each node's plan by the same pointer and each
// their own receive buffers, and their replays, overlapping in time,
// all compute the sequential answer (under -race, the plan is read
// concurrently and never written).
func TestStoreAdoptersSharePlanNotBuffers(t *testing.T) {
	const n, p, tenants, sweeps = 24, 4, 3, 5
	store := NewSharedStore(64, "")
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
	scheds := make([][p]*Schedule, tenants)
	var wg sync.WaitGroup
	for k := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim.MustNew(p, machine.Ideal()).Run(func(nd *machine.Node) {
				a := darray.New("A", d, nd)
				a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
				eng := NewEngine(nd)
				eng.Store = store
				shift := &Loop{
					Name: "shift", Lo: 1, Hi: n - 1,
					On: a, OnF: analysis.Identity,
					Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
					Body:  func(i int, e *Env) { e.Write(a, i, e.Read(a, i+1)) },
				}
				for range sweeps {
					eng.Run(shift)
				}
				a.EachLocal(func(gl int) {
					if got, want := a.Get1(gl), float64(min(gl+sweeps, n)); got != want {
						t.Errorf("tenant %d: A[%d] = %g, want %g", k, gl, got, want)
					}
				})
				scheds[k][nd.ID()] = eng.Schedule("shift")
			})
		}()
	}
	wg.Wait()
	if st := store.Stats(); st.Builds != p {
		t.Fatalf("store stats = %+v, want one build per node (%d)", st, p)
	}
	compared := 0
	for node := range p {
		first := scheds[0][node]
		for k := 1; k < tenants; k++ {
			s := scheds[k][node]
			if s.plan != first.plan {
				t.Errorf("node %d: tenants 0 and %d hold different plans", node, k)
			}
			for j, buf := range s.bufs {
				if len(buf) > 0 {
					compared++
					if &buf[0] == &first.bufs[j][0] {
						t.Errorf("node %d: tenants 0 and %d share slot %d's receive buffer", node, k, j)
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no node receives anything; the test compared no buffers")
	}
}

// TestStorePersistRoundTrip: a fresh store on the same directory
// revives every schedule from disk — the warm start builds nothing —
// and replays bit-identically.
func TestStorePersistRoundTrip(t *testing.T) {
	const n, p = 24, 4
	dir := t.TempDir()
	want, _, _ := runShiftWithStore(t, n, p, NewSharedStore(64, dir))
	files, err := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
	if err != nil || len(files) != p {
		t.Fatalf("persisted %d plan files (err %v), want %d", len(files), err, p)
	}

	warm := NewSharedStore(64, dir)
	got, builds, hits := runShiftWithStore(t, n, p, warm)
	if builds != 0 || hits != p {
		t.Fatalf("warm start: builds=%d storeHits=%d, want 0 and %d", builds, hits, p)
	}
	if st := warm.Stats(); st.DiskHits != p || st.Builds != 0 {
		t.Fatalf("warm store stats = %+v, want DiskHits=%d Builds=0", st, p)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("A[%d] = %g warm, want %g cold", i, got[i], want[i])
		}
	}
}

// TestStorePersistCorruptFallback: garbage cache files are ignored and
// rebuilt cleanly, never trusted.
func TestStorePersistCorruptFallback(t *testing.T) {
	const n, p = 24, 4
	dir := t.TempDir()
	want, _, _ := runShiftWithStore(t, n, p, NewSharedStore(64, dir))
	files, _ := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not a schedule"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSharedStore(64, dir)
	got, builds, _ := runShiftWithStore(t, n, p, s)
	if builds != p {
		t.Fatalf("corrupt cache: builds = %d, want %d (full rebuild)", builds, p)
	}
	if st := s.Stats(); st.DiskHits != 0 {
		t.Fatalf("corrupt cache produced %d disk hits", st.DiskHits)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("A[%d] = %g after fallback, want %g", i, got[i], want[i])
		}
	}
}

// TestStorePersistStaleVersionFallback: a structurally valid envelope
// with the wrong format version is rejected and silently rebuilt — both
// a version from the future and a genuine version-1 file, whose plan
// still lists the interior one iteration per entry.  The
// rebuild overwrites the stale files, so the next start is warm again.
func TestStorePersistStaleVersionFallback(t *testing.T) {
	const n, p = 24, 4
	// diskPlanV1 is diskPlan as schedCacheVersion 1 serialized it.
	type diskPlanV1 struct {
		Rank         int
		ExecLocal    [][2]int
		ExecNonlocal [][2]int
		Arrays       []diskSlot
	}
	rewrite := map[string]func(env *diskSched){
		"future version": func(env *diskSched) { env.Version = schedCacheVersion + 1 },
		"version 1 file": func(env *diskSched) {
			var dp diskPlan
			if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&dp); err != nil {
				t.Fatal(err)
			}
			old := diskPlanV1{Rank: dp.Rank, ExecNonlocal: dp.ExecNonlocal, Arrays: dp.Arrays}
			for _, sg := range dp.ExecLocal {
				for x := sg[1]; x <= sg[2]; x++ {
					old.ExecLocal = append(old.ExecLocal, [2]int{x, 0})
				}
			}
			var payload bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
				t.Fatal(err)
			}
			env.Version, env.Payload, env.Sum = 1, payload.Bytes(), payloadSum(payload.Bytes())
		},
	}
	for name, stale := range rewrite {
		dir := t.TempDir()
		want, _, _ := runShiftWithStore(t, n, p, NewSharedStore(64, dir))
		files, _ := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
		if len(files) == 0 {
			t.Fatal("no persisted files")
		}
		for _, fname := range files {
			raw, err := os.ReadFile(fname)
			if err != nil {
				t.Fatal(err)
			}
			var env diskSched
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
				t.Fatal(err)
			}
			stale(&env)
			var file bytes.Buffer
			if err := gob.NewEncoder(&file).Encode(&env); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fname, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := NewSharedStore(64, dir)
		got, builds, _ := runShiftWithStore(t, n, p, s)
		if builds != p {
			t.Fatalf("%s: builds = %d, want %d (full rebuild)", name, builds, p)
		}
		if st := s.Stats(); st.DiskHits != 0 {
			t.Fatalf("%s produced %d disk hits", name, st.DiskHits)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: A[%d] = %g after rebuild, want %g", name, i, got[i], want[i])
			}
		}
		warm := NewSharedStore(64, dir)
		if _, builds, _ := runShiftWithStore(t, n, p, warm); builds != 0 || warm.Stats().DiskHits != p {
			t.Fatalf("%s: rebuild did not replace the stale files: builds=%d diskHits=%d, want 0 and %d",
				name, builds, warm.Stats().DiskHits, p)
		}
	}
}

// TestStoreEvictionBounded: the in-memory store never exceeds its
// capacity however many shapes pass through.
func TestStoreEvictionBounded(t *testing.T) {
	s := NewSharedStore(storeShards, "") // one plan per shard
	for i := 0; i < 10*storeShards; i++ {
		s.getOrBuild(0, testKey(i), func() *plan { return &plan{rank: 1} })
	}
	st := s.Stats()
	if st.Entries > storeShards {
		t.Fatalf("store holds %d entries, cap %d", st.Entries, storeShards)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under churn")
	}
}

// TestAdoptedInSetsFindLikeLinearScan: the in sets of a schedule made
// by the compile-time analysis, adopted from another tenant's plan,
// and revived from disk all answer Find as a scan over their records
// does.  The adopting engines share the plan's in set, whose index its
// maker or loader built before publishing it.
func TestAdoptedInSetsFindLikeLinearScan(t *testing.T) {
	const n, p = 61, 4
	g := topology.MustGrid(p)
	for name, spec := range map[string]dist.DimSpec{"block": dist.BlockDim(), "cyclic": dist.CyclicDim()} {
		d := dist.Must([]int{n}, []dist.DimSpec{spec}, g)
		dir := t.TempDir()
		store := NewSharedStore(64, dir)
		for _, run := range []struct {
			how       string
			store     *SharedStore
			storeHits int
		}{
			{"built", store, 0},
			{"adopted", store, p},
			{"revived from disk", NewSharedStore(64, dir), p},
		} {
			var mu sync.Mutex
			hits, records := 0, 0
			sim.MustNew(p, machine.Ideal()).Run(func(nd *machine.Node) {
				a := darray.New("A", d, nd)
				eng := NewEngine(nd)
				eng.Store = run.store
				eng.Run(&Loop{
					Name: "shift", Lo: 1, Hi: n - 3,
					On: a, OnF: analysis.Identity,
					Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 3}}},
					Body:  func(i int, e *Env) { e.Write(a, i, e.Read(a, i+3)) },
				})
				mu.Lock()
				defer mu.Unlock()
				hits += eng.SharedHits()
				for _, as := range eng.Schedule("shift").slots {
					records += as.in.NumRanges()
					for _, r := range as.in.Ranges {
						for _, home := range []int{r.FromProc, r.FromProc + 1, -1} {
							for x := r.Low - 2; x <= r.High+2; x++ {
								wantBuf, want := 0, false
								for _, s := range as.in.Ranges {
									if s.FromProc == home && s.Low <= x && x <= s.High {
										wantBuf, want = s.Buf+x-s.Low, true
									}
								}
								if buf, ok := as.in.Find(home, x); buf != wantBuf || ok != want {
									t.Errorf("%s, %s, node %d: Find(%d, %d) = %d, %v; a scan of %v says %d, %v",
										name, run.how, nd.ID(), home, x, buf, ok, as.in.Ranges, wantBuf, want)
								}
							}
						}
					}
				}
			})
			if hits != run.storeHits || records == 0 {
				t.Fatalf("%s, %s: %d store hits over %d in-set records, want %d hits and some records",
					name, run.how, hits, records, run.storeHits)
			}
		}
	}
}

// FuzzLoadDisk: whatever bytes a cache file holds — as the whole file,
// or as the payload of an envelope whose version, key, node and
// checksum are right — the store never panics on it.  A file that
// fails any check is a miss the caller rebuilds; one that passes
// yields a plan that saves and loads back unchanged.
func FuzzLoadDisk(f *testing.F) {
	const node = 1
	key := testKey(0)
	fp := key.fingerprint()
	seed := &plan{
		rank:         1,
		execLocal:    []segment{{lo: 7, hi: 10}},
		execNonlocal: []iteration{{i: 11}},
		slots: []slot{{
			in:  comm.NewInSet([]comm.Range{{FromProc: 2, ToProc: node, Low: 12, High: 12}}, 1),
			out: &comm.OutSet{Ranges: []comm.Range{{FromProc: node, ToProc: 0, Low: 7, High: 7}}, Total: 1},
		}},
	}
	seedStore := NewSharedStore(1, f.TempDir())
	seedStore.saveDisk(node, fp, seed)
	raw, err := os.ReadFile(seedStore.cachePath(node, fp))
	if err != nil {
		f.Fatal(err)
	}
	var env diskSched
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(env.Payload)
	f.Add([]byte("not a schedule"))

	dir := f.TempDir() // a worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		var wrapped bytes.Buffer
		ds := diskSched{Version: schedCacheVersion, KeyFP: fp, Node: node, Sum: payloadSum(data), Payload: data}
		if err := gob.NewEncoder(&wrapped).Encode(&ds); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{data, wrapped.Bytes()} {
			s := NewSharedStore(1, dir)
			if err := os.WriteFile(s.cachePath(node, fp), file, 0o644); err != nil {
				t.Fatal(err)
			}
			built := false
			p, hit := s.getOrBuild(node, key, func() *plan { built = true; return &plan{rank: 1} })
			if hit == built || (s.Stats().DiskHits == 1) != hit {
				t.Fatalf("hit=%v built=%v stats=%+v: a file is either revived or rebuilt", hit, built, s.Stats())
			}
			if !hit {
				continue
			}
			s.saveDisk(node, fp, p)
			if back := s.loadDisk(node, fp); back == nil || !reflect.DeepEqual(planView(back), planView(p)) {
				t.Fatalf("revived plan %+v does not survive a save and load: %+v", p, back)
			}
		}
	})
}
