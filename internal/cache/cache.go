// Package cache provides the sharded LRU block cache that point reads use
// to avoid re-reading and re-decompressing hot data blocks (LevelDB's
// block cache). Compaction reads deliberately bypass it: they stream each
// block exactly once, and letting them in would evict the read path's
// working set.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies a cached block: the owning table's number and the block's
// file offset (unique and stable because tables are immutable).
type Key struct {
	ID     uint64
	Offset int64
}

// Cache is a byte-capacity-bounded sharded LRU. Safe for concurrent use.
type Cache struct {
	shards    [numShards]shard
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

const numShards = 16

// MinShardBytes is the floor each shard's capacity is clamped to: a
// configured capacity small enough to hold no blocks (capacity/numShards
// rounding to a few bytes) would silently cache nothing, so any positive
// capacity guarantees at least a few blocks per shard.
const MinShardBytes = 64 << 10

type shard struct {
	mu   sync.Mutex
	m    map[Key]*list.Element
	lru  list.List // front = most recent
	size int64
	cap  int64
}

type entry struct {
	key Key
	val []byte
}

// New returns a cache holding up to capacity bytes of block data
// (capacity/numShards per shard). Any positive capacity is clamped to at
// least MinShardBytes per shard, so a small configured capacity yields a
// cache that actually holds blocks instead of silently caching nothing;
// the effective total is Capacity(). A capacity <= 0 caches nothing.
func New(capacity int64) *Cache {
	per := capacity / numShards
	if capacity > 0 && per < MinShardBytes {
		per = MinShardBytes
	}
	return newWithShardCap(per)
}

// newWithShardCap builds a cache with an exact per-shard byte capacity
// (no clamping; tests use it to exercise eviction with tiny shards).
func newWithShardCap(per int64) *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = map[Key]*list.Element{}
		c.shards[i].cap = per
		c.shards[i].lru.Init()
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	// Mix table id and offset; offsets are block-aligned so shift them.
	h := k.ID*0x9e3779b97f4a7c15 ^ uint64(k.Offset)>>4*0xc2b2ae3d27d4eb4f
	return &c.shards[h%numShards]
}

// Get returns the cached block for k, or nil. The returned slice is shared:
// callers must not modify it.
func (c *Cache) Get(k Key) []byte {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		s.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry).val
	}
	c.misses.Add(1)
	return nil
}

// Put inserts a block, evicting least-recently-used entries to stay under
// capacity. Values larger than a shard's capacity are not cached. The
// cache takes ownership of val; callers must not modify it afterwards.
func (c *Cache) Put(k Key, val []byte) {
	s := c.shard(k)
	n := int64(len(val))
	if n > s.cap {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		// Replace in place (same immutable block content in practice).
		s.size += n - int64(len(el.Value.(*entry).val))
		el.Value.(*entry).val = val
		s.lru.MoveToFront(el)
	} else {
		s.m[k] = s.lru.PushFront(&entry{key: k, val: val})
		s.size += n
	}
	for s.size > s.cap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.m, e.key)
		s.size -= int64(len(e.val))
		c.evictions.Add(1)
	}
}

// EvictID drops every block belonging to table id (called when a table is
// deleted after compaction).
func (c *Cache) EvictID(id uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.m {
			if k.ID == id {
				s.size -= int64(len(el.Value.(*entry).val))
				s.lru.Remove(el)
				delete(s.m, k)
				c.evictions.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative count of entries dropped — by capacity
// pressure in Put or by EvictID when a table is deleted.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Capacity returns the effective total byte capacity (after per-shard
// clamping).
func (c *Cache) Capacity() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].cap
	}
	return total
}

// Size returns the current cached byte volume.
func (c *Cache) Size() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.size
		s.mu.Unlock()
	}
	return total
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
