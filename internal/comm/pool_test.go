package comm

import (
	"sync"
	"testing"
)

// TestBufPoolRecycles: Get after Put returns the same payload with its
// capacity retained, Get sizes the value slice exactly, and a request
// is served from its own capacity class only.
func TestBufPoolRecycles(t *testing.T) {
	var p BufPool
	a := p.Get(8)
	if len(a.Vals) != 8 {
		t.Fatalf("len = %d, want 8", len(a.Vals))
	}
	p.Put(a)
	if p.Stats().Idle != 1 {
		t.Fatalf("pool holds %d, want 1", p.Stats().Idle)
	}
	b := p.Get(5)
	if b != a {
		t.Error("pool did not recycle the payload")
	}
	if len(b.Vals) != 5 || cap(b.Vals) < 8 {
		t.Errorf("len=%d cap=%d after shrink-reuse, want 5/>=8", len(b.Vals), cap(b.Vals))
	}
	p.Put(b)
	if c := p.Get(4); c == a || len(c.Vals) != 4 {
		t.Errorf("a 4-value request took the 8-value class's buffer (len %d)", len(c.Vals))
	}
	p.Put(nil) // ignored
	st := p.Stats()
	if st.Gets != 3 || st.Puts != 2 || st.News != 2 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want Gets=3 Puts=2 News=2 Idle=1 (nil Put uncounted)", st)
	}
}

// TestBufPoolReserve: a node's declarations create idle buffers (two
// per message) up to the largest one per class, not their sum; Gets
// within the declared demand are never News, and the totals see
// everything the pool counts.
func TestBufPoolReserve(t *testing.T) {
	var totals BufPool
	p := BufPool{Totals: &totals}
	p.Reserve(0, []int{3, 4, 100}) // 4 of class 4, 2 of class 128
	p.Reserve(0, []int{4})         // covered
	p.Reserve(1, []int{4})         // another node's demand adds up
	if st := p.Stats(); st.Idle != 8 || st.News != 0 {
		t.Fatalf("after reserving: %+v, want 8 idle and no News", st)
	}
	var out []*Payload
	for i := 0; i < 6; i++ {
		out = append(out, p.Get(4))
	}
	out = append(out, p.Get(100), p.Get(100))
	if st := p.Stats(); st.News != 0 || st.Idle != 0 {
		t.Fatalf("reserved demand taken: %+v, want no News and nothing idle", st)
	}
	for _, b := range out {
		if len(b.Vals) != 4 && len(b.Vals) != 100 {
			t.Fatalf("reserved buffer has len %d", len(b.Vals))
		}
		b.Vals = append(b.Vals[:0], make([]float64, cap(b.Vals))...) // slab slices must not overlap
		b.Vals[0], b.Vals[len(b.Vals)-1] = 1, 1
	}
	for _, b := range out {
		if b.Vals[0] != 1 || b.Vals[len(b.Vals)-1] != 1 {
			t.Fatal("reserved buffers share storage")
		}
		p.Put(b)
	}
	for i := 0; i < 7; i++ {
		p.Get(4)
	}
	if st := p.Stats(); st.News != 1 {
		t.Fatalf("one Get beyond the declared demand: %+v, want News=1", st)
	}
	if got, want := totals.Stats(), p.Stats(); got.Gets != want.Gets || got.Puts != want.Puts || got.News != want.News {
		t.Fatalf("totals %+v, pool %+v", got, want)
	}
}

// TestBufPoolStatsMidUse: Stats is safe to read while workers hammer
// the pool — under -race this pins the mid-execution observability the
// schedule server's /stats endpoint relies on.
func TestBufPoolStatsMidUse(t *testing.T) {
	var p BufPool
	const workers, rounds = 8, 200
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
			st := p.Stats()
			if st.Gets < st.News {
				t.Errorf("gets %d < news %d", st.Gets, st.News)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p.Put(p.Get(8))
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	st := p.Stats()
	if st.Gets != workers*rounds || st.Puts != workers*rounds {
		t.Fatalf("stats = %+v, want %d gets and puts", st, workers*rounds)
	}
	if st.News > workers || int64(st.Idle) != st.News {
		t.Fatalf("stats = %+v: at most one fresh payload per worker, all idle at rest", st)
	}
}
