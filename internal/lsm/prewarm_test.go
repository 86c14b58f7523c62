package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pcplsm/internal/cache"
	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
)

// prewarmOpts shrinks the geometry so a single CompactLevel rewrites the
// whole key space, and keeps the cache big enough that capacity pressure
// never interferes with the pre-warm assertions.
func prewarmOpts(fs storage.FS) Options {
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	opts.BlockCacheBytes = 4 << 20
	return opts
}

// hotKey renders key i of the pre-warm tests' key space.
func hotKey(i int) []byte { return []byte(fmt.Sprintf("hk%05d", i)) }

// TestPreWarmKeepsHotSetAcrossCompaction: blocks serving a hot key range
// stay cached across the compaction that rewrites them — the compaction's
// write stage re-inserts them under the new table numbers, so the first
// post-compaction reads are cache hits, not misses.
func TestPreWarmKeepsHotSetAcrossCompaction(t *testing.T) {
	db := mustOpen(t, prewarmOpts(storage.NewMemFS()))
	defer db.Close()

	const n, hotLo, hotHi = 1200, 300, 600
	for i := 0; i < n; i++ {
		if err := db.Put(hotKey(i), []byte(fmt.Sprintf("v1-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Heat up [hotLo, hotHi): repeated reads push the covering blocks past
	// the hot threshold.
	for pass := 0; pass < 3; pass++ {
		for i := hotLo; i < hotHi; i++ {
			if _, err := db.Get(hotKey(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := db.Stats().BlockCachePrewarmed; got != 0 {
		t.Fatalf("%d blocks pre-warmed before any compaction", got)
	}

	// Rewrite the whole key space: overwrite, flush, compact L0→L1. The
	// old tables (and their cached blocks) die; without pre-warming every
	// hot block would have to be re-read from the new tables.
	for i := 0; i < n; i++ {
		if err := db.Put(hotKey(i), []byte(fmt.Sprintf("v2-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}

	st := db.Stats()
	if st.BlockCachePrewarmed == 0 {
		t.Fatal("compaction over a hot range pre-warmed nothing")
	}
	t.Logf("pre-warmed %d blocks across the compaction", st.BlockCachePrewarmed)

	// The hot range must be served from cache immediately after the
	// compaction, and with the current values.
	for i := hotLo; i < hotHi; i++ {
		got, err := db.Get(hotKey(i))
		if err != nil || string(got) != fmt.Sprintf("v2-%05d", i) {
			t.Fatalf("Get(%s) = %q, %v after compaction", hotKey(i), got, err)
		}
	}
	post := db.Stats()
	hits := post.BlockCacheHits - st.BlockCacheHits
	misses := post.BlockCacheMisses - st.BlockCacheMisses
	if hits <= misses {
		t.Fatalf("post-compaction hot reads: %d hits vs %d misses — pre-warm ineffective", hits, misses)
	}
	t.Logf("post-compaction hot reads: %d hits, %d misses", hits, misses)
}

// buildCacheTestTable writes one table named for table number num holding
// count keys "tc<num>-%04d".
func buildCacheTestTable(t *testing.T, fs storage.FS, num uint64, count int) {
	t.Helper()
	f, err := fs.Create(TableFileName(num))
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{BlockSize: 512, Compare: ikey.Compare})
	for i := 0; i < count; i++ {
		k := ikey.Make([]byte(fmt.Sprintf("tc%03d-%04d", num, i)), 1, ikey.KindSet)
		if err := w.Add(k, []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// scanLeased iterates a leased reader end to end, failing on any error.
func scanLeased(t *testing.T, h tableHandle, wantEntries int) {
	t.Helper()
	it := h.Reader().NewIter()
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Error(err)
		return
	}
	if n != wantEntries {
		t.Errorf("scan visited %d entries, want %d", n, wantEntries)
	}
}

// TestTableCacheEvictConcurrent: Evict racing leased point reads is safe —
// readers holding handles from an older version keep working (even after
// the file is removed), re-opens after eviction succeed, and once readers
// stop, evicting every table reclaims all cached block bytes.
func TestTableCacheEvictConcurrent(t *testing.T) {
	const tables, entries = 8, 400
	fs := storage.NewMemFS()
	for num := uint64(1); num <= tables; num++ {
		buildCacheTestTable(t, fs, num, entries)
	}
	bc := cache.New(8 << 20)
	tc := newTableCache(fs, bc, cache.NewHeat())
	defer tc.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				num := uint64(1 + rng.Intn(tables))
				h, err := tc.Get(num)
				if err != nil {
					t.Error(err)
					return
				}
				scanLeased(t, h, entries)
				h.Close()
			}
		}(int64(g))
	}

	// Evictor: repeatedly evict every table (and remove one file outright)
	// while the readers run. A lease taken before an Evict must stay valid
	// through it.
	for round := 0; round < 20; round++ {
		held, err := tc.Get(uint64(1 + round%tables))
		if err != nil {
			t.Fatal(err)
		}
		for num := uint64(1); num <= tables; num++ {
			tc.Evict(num)
		}
		scanLeased(t, held, entries) // post-evict read on the old lease
		held.Close()
	}
	close(stop)
	wg.Wait()

	// A deleted table's lease survives eviction plus file removal: the
	// handle pins the open reader until released.
	h, err := tc.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	tc.Evict(3)
	if err := fs.Remove(TableFileName(3)); err != nil {
		t.Fatal(err)
	}
	scanLeased(t, h, entries)
	h.Close()

	// With no leases outstanding, evicting every table must reclaim all
	// cached block bytes.
	for num := uint64(1); num <= tables; num++ {
		tc.Evict(num)
	}
	if got := bc.Size(); got != 0 {
		t.Fatalf("cache holds %d bytes after evicting every table", got)
	}
	if _, err := tc.Get(1); err != nil {
		t.Fatalf("re-open after eviction: %v", err)
	}
}
