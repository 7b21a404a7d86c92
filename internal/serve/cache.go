package serve

import (
	"container/list"
	"sync"

	"refocus/internal/arch"
)

// reportCache is a mutex-guarded LRU of evaluation results keyed by
// cacheKey (design point key + network hash). Reports are
// deterministic for a given key — arch.Evaluate is a pure function of
// (config, network) — so a hit is bit-identical to re-evaluating, and
// the cache never needs invalidation, only capacity eviction.
type reportCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key → element holding cacheEntry
}

// cacheEntry is one (key, report) pair stored in the recency list.
type cacheEntry struct {
	key    string
	report arch.Report
}

// newReportCache returns an empty cache holding at most cap entries;
// cap < 1 is treated as 1 so the cache is always functional.
func newReportCache(cap int) *reportCache {
	if cap < 1 {
		cap = 1
	}
	return &reportCache{
		cap:   cap,
		order: list.New(),
		items: make(map[string]*list.Element, cap),
	}
}

// Get returns the cached report for key, marking it most recently used.
func (c *reportCache) Get(key string) (arch.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return arch.Report{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(cacheEntry).report, true
}

// Put stores a report under key, evicting the least recently used entry
// when the cache is full. Storing an existing key refreshes its recency.
func (c *reportCache) Put(key string, r arch.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = cacheEntry{key: key, report: r}
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(cacheEntry).key)
		}
	}
	c.items[key] = c.order.PushFront(cacheEntry{key: key, report: r})
}

// Len returns the current entry count.
func (c *reportCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the cache capacity in entries.
func (c *reportCache) Cap() int { return c.cap }
