package lru

import "testing"

func TestPutGet(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	if c.Len() != 2 {
		t.Fatalf("Len=%d", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Get(1) // 2 is now LRU
	c.Put(3, 30)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 was recently used, must survive")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d", c.Evictions())
	}
}

func TestPutRefreshesRecency(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(1, 11) // update, 2 becomes LRU
	c.Put(3, 30)
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[int, int](1)
	for i := 0; i < 10; i++ {
		c.Put(i, i)
	}
	if c.Len() != 1 || c.Evictions() != 9 {
		t.Fatalf("Len=%d Evictions=%d", c.Len(), c.Evictions())
	}
	if _, ok := c.Get(9); !ok {
		t.Fatal("newest entry must survive")
	}
}

func TestReset(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Reset()
	if c.Len() != 0 || c.Evictions() != 0 {
		t.Fatalf("after Reset: Len=%d Evictions=%d", c.Len(), c.Evictions())
	}
	c.Put(4, 4)
	if v, ok := c.Get(4); !ok || v != 4 {
		t.Fatal("cache unusable after Reset")
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int, int](0)
}

func TestChurnKeepsListConsistent(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 1000; i++ {
		c.Put(i%13, i)
		c.Get((i * 7) % 13)
		if c.Len() > 8 {
			t.Fatalf("over capacity at i=%d: %d", i, c.Len())
		}
	}
}
