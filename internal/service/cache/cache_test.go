package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestAddGet(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // b is now the oldest
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
}

func TestAddUpdatesAndPromotes(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // update must promote a, not grow the cache
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Add("c", 3) // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d, %v; want 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction after a was updated")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[string, int](0)
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%48)
				c.Add(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("Len = %d exceeds capacity", n)
	}
}
