// Package lru provides the small concurrent LRU cache the online serving
// path puts in front of expensive service calls (NLP annotation, knowledge
// graph lookups), so repeated traffic does not re-tokenize or re-classify
// identical content. It favors simplicity over sharded scalability: one
// mutex, a doubly linked recency list, and hit/miss counters for the
// /v1/metrics cache-hit-rate gauge.
package lru

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache is a fixed-capacity least-recently-used cache. Safe for concurrent
// use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List          // guarded by mu; front = most recently used
	items map[K]*list.Element // guarded by mu

	hits, misses atomic.Int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) (*Cache[K, V], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("lru: capacity %d, want > 0", capacity)
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}, nil
}

// Get returns the cached value and whether it was present, refreshing the
// entry's recency and counting the lookup as a hit or miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Add inserts or refreshes an entry, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
}

// Hits returns the number of Get calls that found their key.
func (c *Cache[K, V]) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Get calls that did not.
func (c *Cache[K, V]) Misses() int64 { return c.misses.Load() }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache[K, V]) HitRate() float64 {
	h, m := float64(c.hits.Load()), float64(c.misses.Load())
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}
