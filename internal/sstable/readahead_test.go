package sstable

import (
	"fmt"
	"testing"

	"pcplsm/internal/cache"
	"pcplsm/internal/storage"
)

// multiBlockKVs builds enough entries to span many data blocks at a small
// block size.
func multiBlockKVs(n int) [][2]string {
	kvs := make([][2]string, n)
	for i := range kvs {
		kvs[i] = [2]string{
			fmt.Sprintf("key%08d", i),
			fmt.Sprintf("value-%08d-%064d", i, i),
		}
	}
	return kvs
}

// TestReadaheadMatchesPlainScan: a readahead scan visits exactly the same
// entries as a plain scan, across block boundaries.
func TestReadaheadMatchesPlainScan(t *testing.T) {
	fs := storage.NewMemFS()
	kvs := multiBlockKVs(2000)
	buildTable(t, fs, "t.sst", WriterOptions{BlockSize: 512}, kvs)
	r := openTable(t, fs, "t.sst")
	defer r.Close()
	if r.NumBlocks() < 20 {
		t.Fatalf("want a many-block table, got %d blocks", r.NumBlocks())
	}

	for _, ra := range []int{1, 3, 8} {
		it := r.NewIter()
		it.SetReadahead(ra)
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if string(it.Key()) != kvs[i][0] || string(it.Value()) != kvs[i][1] {
				t.Fatalf("ra=%d entry %d = %q/%q, want %q/%q",
					ra, i, it.Key(), it.Value(), kvs[i][0], kvs[i][1])
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("ra=%d: %v", ra, err)
		}
		if i != len(kvs) {
			t.Fatalf("ra=%d visited %d entries, want %d", ra, i, len(kvs))
		}
		it.Close()
	}
}

// TestReadaheadSeekMidScan: seeking while prefetches are in flight drops
// the stale fetches and continues correctly from the new position.
func TestReadaheadSeekMidScan(t *testing.T) {
	fs := storage.NewMemFS()
	kvs := multiBlockKVs(2000)
	buildTable(t, fs, "t.sst", WriterOptions{BlockSize: 512}, kvs)
	r := openTable(t, fs, "t.sst")
	defer r.Close()

	it := r.NewIter()
	it.SetReadahead(4)
	defer it.Close()
	if !it.First() {
		t.Fatal("First failed")
	}
	for j := 0; j < 50; j++ { // run into the pipeline
		if !it.Next() {
			t.Fatal("Next failed early")
		}
	}
	// Jump far ahead, then far back, then scan to the end.
	target := kvs[1500][0]
	if !it.Seek([]byte(target)) || string(it.Key()) != target {
		t.Fatalf("Seek(%q) landed on %q", target, it.Key())
	}
	if !it.Seek([]byte(kvs[100][0])) || string(it.Key()) != kvs[100][0] {
		t.Fatalf("backward Seek landed on %q", it.Key())
	}
	i := 100
	for ok := true; ok; ok = it.Next() {
		if string(it.Key()) != kvs[i][0] {
			t.Fatalf("entry %d = %q, want %q", i, it.Key(), kvs[i][0])
		}
		i++
		if i == len(kvs) {
			break
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReadaheadWithBlockCache: prefetched blocks land in the shared cache;
// a second scan over the same table is served from it.
func TestReadaheadWithBlockCache(t *testing.T) {
	fs := storage.NewMemFS()
	kvs := multiBlockKVs(1000)
	buildTable(t, fs, "t.sst", WriterOptions{BlockSize: 512}, kvs)
	r := openTable(t, fs, "t.sst")
	defer r.Close()
	bc := cache.New(4 << 20)
	r.SetBlockCache(bc, 42)

	scan := func(ra int) {
		it := r.NewIter()
		it.SetReadahead(ra)
		defer it.Close()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if n != len(kvs) {
			t.Fatalf("scan visited %d entries, want %d", n, len(kvs))
		}
	}
	scan(4)
	hits0, _ := bc.Stats()
	scan(4)
	hits1, misses1 := bc.Stats()
	if hits1-hits0 < int64(r.NumBlocks()) {
		t.Fatalf("warm scan hit only %d of %d blocks (misses now %d)",
			hits1-hits0, r.NumBlocks(), misses1)
	}
}
