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

// TestBlockCacheServesRepeatedReads: repeated Gets against table data hit
// the block cache instead of re-reading blocks.
func TestBlockCacheServesRepeatedReads(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	db := mustOpen(t, opts)
	defer db.Close()

	ref := loadKeys(t, db, 2000, 91, 80)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	// First pass warms the cache; second pass should be mostly hits.
	verifyAll(t, db, ref)
	mid := db.Stats()
	verifyAll(t, db, ref)
	final := db.Stats()

	newHits := final.BlockCacheHits - mid.BlockCacheHits
	newMisses := final.BlockCacheMisses - mid.BlockCacheMisses
	if newHits == 0 {
		t.Fatal("no cache hits on a repeated read pass")
	}
	if newMisses > newHits {
		t.Fatalf("warm pass: %d misses vs %d hits", newMisses, newHits)
	}
	t.Logf("warm pass: %d hits, %d misses", newHits, newMisses)
}

// TestBlockCacheDisabled: a negative capacity disables caching entirely.
func TestBlockCacheDisabled(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.BlockCacheBytes = -1
	db := mustOpen(t, opts)
	defer db.Close()
	ref := loadKeys(t, db, 1000, 92, 80)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, db, ref)
	verifyAll(t, db, ref)
	st := db.Stats()
	if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
		t.Fatalf("cache counters active while disabled: %d/%d",
			st.BlockCacheHits, st.BlockCacheMisses)
	}
}

// TestBlockCacheCorrectAcrossCompaction: cached blocks of deleted tables
// must never serve stale data.
func TestBlockCacheCorrectAcrossCompaction(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("ck%05d", i)), []byte("v1"))
	}
	db.Flush()
	// Warm the cache with v1 reads.
	for i := 0; i < 1000; i += 10 {
		db.Get([]byte(fmt.Sprintf("ck%05d", i)))
	}
	// Overwrite and compact everything down.
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("ck%05d", i)), []byte("v2"))
	}
	db.Flush()
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		got, err := db.Get([]byte(fmt.Sprintf("ck%05d", i)))
		if err != nil || string(got) != "v2" {
			t.Fatalf("ck%05d = %q, %v after compaction", i, got, err)
		}
	}
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
	tc := newTableCache(fs, bc)
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
