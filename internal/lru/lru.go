// Package lru is a bounded, thread-safe least-recently-used cache keyed
// by string. It backs rcserve's response cache (marshaled response bytes)
// and the experiment runner's front cache (compiled front ends).
package lru

import (
	"container/list"
	"sync"
)

// Cache holds at most its bound of entries, evicting the least recently
// used. Values are returned by reference and must not be mutated by
// callers.
type Cache[V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recent
	items     map[string]*list.Element
	evictions int64
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most max (>= 1) entries.
func New[V any](max int) *Cache[V] {
	return &Cache[V]{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores val under key. The first write wins: if the key is already
// cached the existing value is kept (only refreshed in the LRU order), so
// two computations racing on one key cannot swap the value a previous
// reader was handed.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key, val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evicted returns the number of entries evicted since New.
func (c *Cache[V]) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
