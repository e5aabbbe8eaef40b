package service

import (
	"container/list"
	"sync"
)

// cache is a bounded LRU keyed by content hash: the completed-result
// cache. Hit and miss counters are reported by the caller.
type cache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val any
}

// newCache returns an LRU bounded to max entries (max < 1 means 1).
func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{max: max, order: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached value and marks it most recently used.
func (c *cache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry past the bound.
func (c *cache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for len(c.items) > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}
