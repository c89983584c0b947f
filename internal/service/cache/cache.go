// Package cache provides the small, concurrency-safe LRU used by the
// mapping service's result cache. Keys are typically the triple
// (structural network digest, algorithm, options) flattened to a string;
// values are immutable encoded results shared between readers, so Get
// returns them without copying.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache. The zero value is not
// usable; call New. All methods are safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries. It panics
// if capacity is not positive: a service configured with a zero-entry
// cache should skip caching, not construct one.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	return &LRU[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores value under key, replacing any previous value, and evicts the
// least recently used entry if the cache is over capacity.
func (c *LRU[K, V]) Add(key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = value
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key, value})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries currently cached.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge empties the cache.
func (c *LRU[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}
