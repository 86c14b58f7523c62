package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	k := Key{ID: 1, Offset: 0}
	if c.Get(k) != nil {
		t.Fatal("empty cache hit")
	}
	c.Put(k, []byte("block-contents"))
	if got := c.Get(k); string(got) != "block-contents" {
		t.Fatalf("Get = %q", got)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if c.Len() != 1 || c.Size() != int64(len("block-contents")) {
		t.Fatalf("Len=%d Size=%d", c.Len(), c.Size())
	}
}

func TestReplaceSameKey(t *testing.T) {
	c := New(1 << 20)
	k := Key{ID: 1, Offset: 8}
	c.Put(k, []byte("aaaa"))
	c.Put(k, []byte("bb"))
	if got := c.Get(k); string(got) != "bb" {
		t.Fatalf("Get = %q", got)
	}
	if c.Len() != 1 || c.Size() != 2 {
		t.Fatalf("Len=%d Size=%d after replace", c.Len(), c.Size())
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := newWithShardCap(1024) // 1 KiB per shard
	val := make([]byte, 256)
	for i := 0; i < 1000; i++ {
		c.Put(Key{ID: 1, Offset: int64(i * 16)}, val)
	}
	if sz := c.Size(); sz > 16*1024 {
		t.Fatalf("size %d exceeds capacity", sz)
	}
	if c.Len() == 0 {
		t.Fatal("cache evicted everything")
	}
}

func TestLRUOrder(t *testing.T) {
	// Single-shard behavior: use keys that map to one shard by capacity
	// accounting — easiest to verify through global properties instead:
	// recently-touched keys survive, untouched ones are evicted first.
	c := newWithShardCap(1024) // 1 KiB per shard
	val := make([]byte, 300)   // 3 fit per shard

	// Fill one logical stream of keys.
	keys := make([]Key, 12)
	for i := range keys {
		keys[i] = Key{ID: 7, Offset: int64(i * 4096)}
		c.Put(keys[i], val)
	}
	// Touch the most recent insertions' predecessors won't survive;
	// instead verify: any key that Get returns non-nil stays retrievable
	// after touching it repeatedly while inserting new ones into other IDs.
	var live []Key
	for _, k := range keys {
		if c.Get(k) != nil {
			live = append(live, k)
		}
	}
	if len(live) == 0 {
		t.Fatal("nothing survived initial fill")
	}
	pinned := live[0]
	for i := 0; i < 100; i++ {
		c.Get(pinned) // keep hot
		c.Put(Key{ID: 9, Offset: int64(i * 4096)}, val)
	}
	if c.Get(pinned) == nil {
		t.Fatal("hot entry evicted while cold entries churned")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := newWithShardCap(100) // 100 B per shard
	c.Put(Key{ID: 1}, make([]byte, 200))
	if c.Len() != 0 {
		t.Fatal("oversized value cached")
	}
}

func TestEvictID(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 50; i++ {
		c.Put(Key{ID: 1, Offset: int64(i)}, []byte("a"))
		c.Put(Key{ID: 2, Offset: int64(i)}, []byte("b"))
	}
	c.EvictID(1)
	for i := 0; i < 50; i++ {
		if c.Get(Key{ID: 1, Offset: int64(i)}) != nil {
			t.Fatal("evicted table still cached")
		}
	}
	found := 0
	for i := 0; i < 50; i++ {
		if c.Get(Key{ID: 2, Offset: int64(i)}) != nil {
			found++
		}
	}
	if found == 0 {
		t.Fatal("EvictID removed other tables' blocks")
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	c.Put(Key{ID: 1}, []byte("x"))
	if c.Get(Key{ID: 1}) != nil {
		t.Fatal("zero-capacity cache stored data")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			val := make([]byte, 128)
			for i := 0; i < 5000; i++ {
				k := Key{ID: uint64(rng.Intn(4)), Offset: int64(rng.Intn(100) * 4096)}
				if rng.Intn(2) == 0 {
					c.Put(k, val)
				} else {
					c.Get(k)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if c.Size() < 0 {
		t.Fatal("negative size")
	}
}

// TestTinyCapacityClamped: a positive capacity too small to hold a block
// per shard is clamped instead of silently caching nothing (the old
// integer-division bug: BlockCacheBytes below 16 bytes/shard cached zero
// blocks while counting misses forever).
func TestTinyCapacityClamped(t *testing.T) {
	c := New(100) // 6 bytes/shard before clamping
	if got := c.Capacity(); got != numShards*MinShardBytes {
		t.Fatalf("Capacity() = %d, want %d", got, numShards*MinShardBytes)
	}
	c.Put(Key{ID: 1}, make([]byte, 4096))
	if c.Get(Key{ID: 1}) == nil {
		t.Fatal("clamped cache still refuses a 4 KiB block")
	}
}

func TestEvictionCounters(t *testing.T) {
	c := newWithShardCap(1024)
	val := make([]byte, 512)
	for i := 0; i < 100; i++ {
		c.Put(Key{ID: 1, Offset: int64(i * 4096)}, val)
	}
	if c.Evictions() == 0 {
		t.Fatal("capacity churn recorded no evictions")
	}
	before := c.Evictions()
	kept := c.Len()
	c.EvictID(1)
	if c.Len() != 0 {
		t.Fatal("EvictID left blocks behind")
	}
	if got := c.Evictions() - before; got != int64(kept) {
		t.Fatalf("EvictID counted %d evictions, want %d", got, kept)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(64 << 20)
	val := make([]byte, 4096)
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = Key{ID: uint64(i % 8), Offset: int64(i * 4096)}
		c.Put(keys[i], val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Get(keys[i%len(keys)]) == nil {
			b.Fatal(fmt.Sprintf("miss at %d", i))
		}
	}
}
