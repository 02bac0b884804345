package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestRejectsBadCapacity(t *testing.T) {
	if _, err := New[string, int](0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New[string, int](-1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c, err := New[string, int](2)
	if err != nil {
		t.Fatal(err)
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction, want a refreshed instead")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %v", v, ok)
	}
	if c.ll.Len() != 2 {
		t.Errorf("len = %d, want 2", c.ll.Len())
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c, _ := New[string, int](2)
	c.Add("a", 1)
	c.Add("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("a = %d, want 9", v)
	}
	if c.ll.Len() != 1 {
		t.Errorf("len = %d, want 1", c.ll.Len())
	}
}

func TestCounters(t *testing.T) {
	c, _ := New[string, int](4)
	c.Add("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("zzz")
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", c.Hits(), c.Misses())
	}
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", got)
	}
}

func TestHitRateBeforeLookups(t *testing.T) {
	c, _ := New[string, int](4)
	if c.HitRate() != 0 {
		t.Errorf("hit rate = %v before any lookup", c.HitRate())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
				if _, ok := c.Get(k); !ok {
					c.Add(k, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.ll.Len() > 64 {
		t.Errorf("len = %d exceeds capacity", c.ll.Len())
	}
	_ = fmt.Sprintf("%d/%d", c.Hits(), c.Misses())
}
