// Package cachesim models the per-socket shared L3 caches at buffer
// granularity: a working set (identified by the caller, e.g. one matrix
// block) either fits and hits, or streams from memory. This coarse model
// is what produces the paper's 512-element crossover in Figure 8 — below
// it the three BLAS3 operands fit in the 2 MB L3 and data placement stops
// mattering — and the BLAS1 non-result of §4.5.
package cachesim

import "container/list"

// Stats counts cache outcomes in bytes.
type Stats struct {
	HitBytes  int64
	MissBytes int64
}

// Cache is one socket's shared last-level cache.
type Cache struct {
	capacity int64
	used     int64
	order    *list.List               // front = most recent
	index    map[uint64]*list.Element // id -> element
	Stats    Stats
}

type entry struct {
	id    uint64
	bytes int64
}

// New creates a cache with the given capacity in bytes.
func New(capacity int64) *Cache {
	return &Cache{capacity: capacity, order: list.New(), index: map[uint64]*list.Element{}}
}

// Used returns the bytes currently resident.
func (c *Cache) Used() int64 { return c.used }

// Access touches a working set of the given id and size; it reports
// whether the access hits (the set was fully resident). Missing sets are
// installed front-of-LRU, evicting least-recently-used sets. Sets larger
// than the cache bypass it entirely.
func (c *Cache) Access(id uint64, bytes int64) bool {
	if bytes <= 0 {
		return true
	}
	if bytes > c.capacity {
		// Streams straight through; any stale resident version of this
		// set is invalidated rather than left behind.
		c.Invalidate(id)
		c.Stats.MissBytes += bytes
		return false
	}
	if el, ok := c.index[id]; ok {
		e := el.Value.(*entry)
		if e.bytes == bytes {
			c.order.MoveToFront(el)
			c.Stats.HitBytes += bytes
			return true
		}
		// Size changed: treat as replacement.
		c.remove(el)
	}
	c.Stats.MissBytes += bytes
	for c.used+bytes > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.remove(back)
	}
	el := c.order.PushFront(&entry{id: id, bytes: bytes})
	c.index[id] = el
	c.used += bytes
	return false
}

// Contains reports whether the working set is resident (without touching
// LRU order).
func (c *Cache) Contains(id uint64) bool {
	_, ok := c.index[id]
	return ok
}

// Invalidate drops a working set (e.g. after its pages migrated).
func (c *Cache) Invalidate(id uint64) {
	if el, ok := c.index[id]; ok {
		c.remove(el)
	}
}

// Flush empties the cache.
func (c *Cache) Flush() {
	c.order.Init()
	c.index = map[uint64]*list.Element{}
	c.used = 0
}

func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.index, e.id)
	c.used -= e.bytes
}

// Group is one cache per NUMA node/socket.
type Group struct {
	caches []*Cache
}

// NewGroup creates n per-socket caches of the given capacity.
func NewGroup(n int, capacity int64) *Group {
	g := &Group{}
	for i := 0; i < n; i++ {
		g.caches = append(g.caches, New(capacity))
	}
	return g
}

// Node returns the cache of socket n.
func (g *Group) Node(n int) *Cache { return g.caches[n] }

// InvalidateAll drops a working set from every socket's cache.
func (g *Group) InvalidateAll(id uint64) {
	for _, c := range g.caches {
		c.Invalidate(id)
	}
}
