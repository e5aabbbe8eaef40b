package service

import (
	"container/list"
	"sync"
)

// cache is a bounded LRU keyed by content hash: the completed-result
// cache. Each entry holds one result under its content key and at most
// one second key, an alias a job can compute before it builds anything
// (see Server.simulate). The bound counts entries, not keys, and
// evicting an entry drops both of its keys. Hit and miss counters are
// reported by the caller.
type cache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

type cacheEntry struct {
	key   string
	alias string // "" when the entry has no second key
	val   any
}

// newCache returns an LRU bounded to max entries (max < 1 means 1).
func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{max: max, order: list.New(), items: map[string]*list.Element{}}
}

// get returns the value under key (content key or alias) and marks its
// entry most recently used.
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

// put inserts or refreshes a value under its content key, evicting the
// least recently used entry past the bound.
func (c *cache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		e := last.Value.(*cacheEntry)
		delete(c.items, e.key)
		if e.alias != "" {
			delete(c.items, e.alias)
		}
	}
}

// alias makes alias a second key of the entry under key, replacing the
// entry's previous alias. It does nothing when key is not cached.
func (c *cache) alias(alias, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.alias != "" {
		delete(c.items, e.alias)
	}
	e.alias = alias
	c.items[alias] = el
}
