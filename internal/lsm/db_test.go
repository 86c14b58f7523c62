package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/storage"
)

// smallOpts returns options scaled down so tests exercise flushes and
// multi-level compactions with tiny data volumes.
func smallOpts(fs storage.FS) Options {
	return Options{
		FS:                  fs,
		MemtableSize:        32 << 10,
		TableSize:           16 << 10,
		BlockSize:           1 << 10,
		BaseLevelSize:       64 << 10,
		LevelMultiplier:     4,
		L0CompactionTrigger: 4,
		L0StallTrigger:      8,
		Compaction:          core.Config{Mode: core.ModePCP, SubtaskSize: 8 << 10},
	}
}

func mustOpen(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetDelete(t *testing.T) {
	db := mustOpen(t, smallOpts(storage.NewMemFS()))
	defer db.Close()

	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k1"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite.
	if err := db.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Get([]byte("k1")); string(got) != "v2" {
		t.Fatalf("after overwrite: %q", got)
	}
	// Delete.
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	// Missing key.
	if _, err := db.Get([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db := mustOpen(t, smallOpts(storage.NewMemFS()))
	defer db.Close()
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("bk%03d", i)), []byte("bv"))
	}
	b.Delete([]byte("bk050"))
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("bk%03d", i)
		_, err := db.Get([]byte(k))
		if i == 50 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("bk050 should be deleted (batch order), got %v", err)
			}
		} else if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
	}
	if db.Seq() != 101 {
		t.Fatalf("Seq = %d, want 101", db.Seq())
	}
}

// loadKeys inserts n keys and returns the reference map.
func loadKeys(t testing.TB, db *DB, n int, seed int64, valLen int) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := map[string]string{}
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", rng.Intn(n*4))
		rng.Read(val)
		v := fmt.Sprintf("%x", val[:8])
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	return ref
}

func verifyAll(t testing.TB, db *DB, ref map[string]string) {
	t.Helper()
	for k, v := range ref {
		got, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get(%s) = %q, want %q", k, got, v)
		}
	}
}

func TestFlushAndCompactionPreserveData(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"scp", core.Config{Mode: core.ModeSCP, SubtaskSize: 8 << 10}},
		{"pcp", core.Config{Mode: core.ModePCP, SubtaskSize: 8 << 10}},
		{"c-ppcp", core.Config{Mode: core.ModePCP, SubtaskSize: 8 << 10, ComputeParallel: 3}},
		{"s-ppcp", core.Config{Mode: core.ModePCP, SubtaskSize: 8 << 10, IOParallel: 3}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := smallOpts(storage.NewMemFS())
			opts.Compaction = mode.cfg
			db := mustOpen(t, opts)
			defer db.Close()

			ref := loadKeys(t, db, 4000, 42, 100)
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			if st.Flushes == 0 {
				t.Fatal("no flushes happened; test not exercising the tree")
			}
			if st.Compactions == 0 {
				t.Fatal("no compactions happened")
			}
			if err := db.Version().checkInvariants(); err != nil {
				t.Fatal(err)
			}
			verifyAll(t, db, ref)

			// Data must live in deeper levels, not just L0.
			v := db.Version()
			deeper := 0
			for l := 1; l < NumLevels; l++ {
				deeper += len(v.Levels[l])
			}
			if deeper == 0 {
				t.Fatal("no tables below L0 after compactions")
			}
		})
	}
}

func TestDeletesSurviveCompaction(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	db := mustOpen(t, opts)
	defer db.Close()

	// Write keys, flush to tables, then delete half and compact again.
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i)), bytes.Repeat([]byte{'v'}, 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 2 {
		db.Delete([]byte(fmt.Sprintf("key%06d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key%06d", i)
		_, err := db.Get([]byte(k))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted %s still visible: %v", k, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving %s lost: %v", k, err)
		}
	}
}

func TestIterator(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	db := mustOpen(t, opts)
	defer db.Close()

	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%06d", (i*37)%3000)
		v := fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		ref[k] = v
	}
	// Delete a stripe.
	for i := 0; i < 3000; i += 5 {
		k := fmt.Sprintf("key%06d", i)
		db.Delete([]byte(k))
		delete(ref, k)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	var wantKeys []string
	for k := range ref {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if i >= len(wantKeys) {
			t.Fatalf("iterator yielded extra key %q", it.Key())
		}
		if string(it.Key()) != wantKeys[i] {
			t.Fatalf("position %d: got %q want %q", i, it.Key(), wantKeys[i])
		}
		if string(it.Value()) != ref[wantKeys[i]] {
			t.Fatalf("value of %q: got %q want %q", it.Key(), it.Value(), ref[wantKeys[i]])
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != len(wantKeys) {
		t.Fatalf("scanned %d keys, want %d", i, len(wantKeys))
	}

	// Seek semantics.
	mid := wantKeys[len(wantKeys)/2]
	if !it.Seek([]byte(mid)) || string(it.Key()) != mid {
		t.Fatalf("Seek(%q) landed on %q", mid, it.Key())
	}
	if it.Seek([]byte("zzzz")) {
		t.Fatal("Seek past end should be invalid")
	}
}

func TestIteratorSnapshotIsolation(t *testing.T) {
	db := mustOpen(t, smallOpts(storage.NewMemFS()))
	defer db.Close()
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("1"))

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Writes after iterator creation must be invisible.
	db.Put([]byte("a"), []byte("2"))
	db.Put([]byte("c"), []byte("2"))
	db.Delete([]byte("b"))

	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, fmt.Sprintf("%s=%s", it.Key(), it.Value()))
	}
	want := []string{"a=1", "b=1"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("snapshot scan = %v, want %v", got, want)
	}
}

func TestIteratorSurvivesConcurrentCompaction(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i)), bytes.Repeat([]byte{'x'}, 64))
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Kick off heavy churn while scanning.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			db.Put([]byte(fmt.Sprintf("key%06d", i)), bytes.Repeat([]byte{'y'}, 64))
		}
		db.Flush()
	}()
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		count++
	}
	<-done
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != 3000 {
		t.Fatalf("scan under churn saw %d keys, want 3000", count)
	}
}

func TestRecoveryAfterClose(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	db := mustOpen(t, opts)
	ref := loadKeys(t, db, 3000, 7, 80)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	verifyAll(t, db2, ref)
	if err := db2.Version().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryFromWALOnly(t *testing.T) {
	// Simulate a crash: writes only in the WAL (no flush), then reopen
	// without Close by cloning the FS state... MemFS shares state, so just
	// abandon the first DB (no Close) and open a second one on the same FS.
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	opts.MemtableSize = 1 << 30 // never flush
	db := mustOpen(t, opts)
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("wk%04d", i)), []byte("wv")); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon db (simulating a crash). Its background goroutine is idle.
	st := db.Stats()
	if st.Flushes != 0 {
		t.Fatal("unexpected flush defeats the test setup")
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 500; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("wk%04d", i))); err != nil {
			t.Fatalf("key wk%04d lost after WAL recovery: %v", i, err)
		}
	}
	if db2.Seq() < 500 {
		t.Fatalf("recovered seq %d < 500", db2.Seq())
	}
}

func TestRecoveryTornWAL(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	opts.MemtableSize = 1 << 30
	db := mustOpen(t, opts)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("tk%04d", i)), bytes.Repeat([]byte{'v'}, 200))
	}
	// Find the live WAL and tear its tail.
	names, _ := fs.List()
	var walName string
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".log" {
			walName = n
		}
	}
	data, err := storage.ReadAll(fs, walName)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(walName); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFile(fs, walName, data[:len(data)-50]); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	// Early keys must survive; only the torn tail may be lost.
	for i := 0; i < 100; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("tk%04d", i))); err != nil {
			t.Fatalf("early key tk%04d lost: %v", i, err)
		}
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	db := mustOpen(t, opts)
	defer db.Close()

	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%05d", w, i)
				if err := db.Put([]byte(k), []byte(k)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%10 == 0 {
					if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
						t.Errorf("readback %s: %q %v", k, v, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-%05d", w, i)
			if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
				t.Fatalf("final %s: %q %v", k, v, err)
			}
		}
	}
}

func TestWriteStallAccounting(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.L0StallTrigger = 2
	opts.L0CompactionTrigger = 2
	db := mustOpen(t, opts)
	defer db.Close()
	loadKeys(t, db, 4000, 3, 120)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.StallCount == 0 {
		t.Log("no stalls recorded (compaction kept up); acceptable but unusual at these settings")
	}
}

func TestCompactLevelManual(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	ref := loadKeys(t, db, 2000, 9, 100)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	if len(v.Levels[0]) == 0 {
		t.Fatal("no L0 tables after flush")
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	v = db.Version()
	if len(v.Levels[0]) != 0 {
		t.Fatalf("L0 still has %d tables after manual compaction", len(v.Levels[0]))
	}
	if len(v.Levels[1]) == 0 {
		t.Fatal("L1 empty after L0 compaction")
	}
	verifyAll(t, db, ref)

	if err := db.CompactLevel(NumLevels - 1); err == nil {
		t.Fatal("compacting the bottom level should fail")
	}
	st := db.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if st.LastCompaction.InputBytes == 0 || st.CompactionBandwidth() <= 0 {
		t.Fatal("compaction stats not recorded")
	}
}

func TestGetFromAllLevels(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	// Layer 1: old values, pushed to L1.
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("old"))
	}
	db.Flush()
	db.CompactLevel(0)
	// Layer 2: some overwrites, in L0.
	for i := 0; i < 500; i += 2 {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("mid"))
	}
	db.Flush()
	// Layer 3: a few newest values, in the memtable.
	for i := 0; i < 500; i += 10 {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("new"))
	}

	for i := 0; i < 500; i++ {
		want := "old"
		if i%2 == 0 {
			want = "mid"
		}
		if i%10 == 0 {
			want = "new"
		}
		got, err := db.Get([]byte(fmt.Sprintf("key%05d", i)))
		if err != nil || string(got) != want {
			t.Fatalf("key%05d = %q (%v), want %q", i, got, err, want)
		}
	}
}

func TestClosedDBOperationsFail(t *testing.T) {
	db := mustOpen(t, smallOpts(storage.NewMemFS()))
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := db.NewIterator(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewIterator after close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenRequiresFS(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without FS should fail")
	}
}

func TestEmptyBatchWrite(t *testing.T) {
	db := mustOpen(t, smallOpts(storage.NewMemFS()))
	defer db.Close()
	var b Batch
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if db.Seq() != 0 {
		t.Fatal("empty batch consumed sequence numbers")
	}
}

func TestBatchEncodeDecodeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var b Batch
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			k := make([]byte, rng.Intn(30))
			rng.Read(k)
			if rng.Intn(3) == 0 {
				b.Delete(k)
			} else {
				v := make([]byte, rng.Intn(100))
				rng.Read(v)
				b.Put(k, v)
			}
		}
		seq := rng.Uint64() % (1 << 50)
		rec := b.encode(seq)
		gotSeq, entries, err := decodeBatch(rec)
		if err != nil {
			t.Fatal(err)
		}
		if gotSeq != seq || len(entries) != b.Len() {
			t.Fatalf("decode mismatch: seq %d/%d, n %d/%d", gotSeq, seq, len(entries), b.Len())
		}
		for i := range entries {
			if entries[i].kind != b.entries[i].kind ||
				!bytes.Equal(entries[i].key, b.entries[i].key) ||
				!bytes.Equal(entries[i].val, b.entries[i].val) {
				t.Fatalf("entry %d mismatch", i)
			}
		}
	}
}

func TestDecodeBatchCorrupt(t *testing.T) {
	var b Batch
	b.Put([]byte("key"), []byte("value"))
	rec := b.encode(7)
	for cut := 0; cut < len(rec); cut++ {
		if _, _, err := decodeBatch(rec[:cut]); err == nil && cut < len(rec) {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	// Unknown kind byte.
	bad := append([]byte{}, rec...)
	bad[2] = 0x7f
	if _, _, err := decodeBatch(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestTableFileNameRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 42, 999999, 12345678} {
		num, err := parseTableNum(TableFileName(n))
		if err != nil || num != n {
			t.Fatalf("round trip %d: %d, %v", n, num, err)
		}
	}
	if _, err := parseTableNum("garbage.sst"); err == nil {
		t.Fatal("garbage name parsed")
	}
}

func TestCodecOptionRespected(t *testing.T) {
	for _, kind := range []compress.Kind{compress.None, compress.Snappy, compress.Flate} {
		opts := smallOpts(storage.NewMemFS())
		opts.Codec = compress.MustByKind(kind)
		db := mustOpen(t, opts)
		ref := loadKeys(t, db, 1500, int64(kind)+100, 100)
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		verifyAll(t, db, ref)
		db.Close()
	}
}

func TestStatsString(t *testing.T) {
	db := mustOpen(t, smallOpts(storage.NewMemFS()))
	defer db.Close()
	loadKeys(t, db, 500, 1, 50)
	if s := db.Stats().String(); s == "" {
		t.Fatal("empty stats string")
	}
}

// TestSeqSurvivesFlushAndReopen is the regression test for a recovery bug:
// a flush deletes its WAL, and if the live WAL is still empty at reopen the
// sequence counter must come from the flush's manifest checkpoint. Without
// it, post-reopen writes get lower sequence numbers than the flushed data
// and are silently shadowed (deletes stop working).
func TestSeqSurvivesFlushAndReopen(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	db := mustOpen(t, opts)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("sq%04d", i)), []byte("v1"))
	}
	if err := db.Flush(); err != nil { // deletes the WAL holding seqs 1..200
		t.Fatal(err)
	}
	seqBefore := db.Seq()
	if err := db.Close(); err != nil { // live WAL is empty at this point
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	if got := db2.Seq(); got < seqBefore {
		t.Fatalf("sequence regressed across reopen: %d < %d", got, seqBefore)
	}
	// New writes must shadow the flushed data, and deletes must stick.
	db2.Put([]byte("sq0000"), []byte("v2"))
	db2.Delete([]byte("sq0001"))
	if v, err := db2.Get([]byte("sq0000")); err != nil || string(v) != "v2" {
		t.Fatalf("overwrite after reopen: %q, %v", v, err)
	}
	if _, err := db2.Get([]byte("sq0001")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete after reopen ineffective: %v", err)
	}
}

// syncCountFS counts Sync calls per .sst file created through it.
type syncCountFS struct {
	storage.FS
	mu    sync.Mutex
	syncs map[string]int
}

func (c *syncCountFS) Create(name string) (storage.File, error) {
	f, err := c.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	c.mu.Lock()
	c.syncs[name] = 0
	c.mu.Unlock()
	return &syncCountFile{File: f, fs: c, name: name}, nil
}

type syncCountFile struct {
	storage.File
	fs   *syncCountFS
	name string
}

func (f *syncCountFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs[f.name]++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// TestTablesSyncedOnce: every flush output and every compaction output is
// synced exactly once, by the table writer's Finish, under both procedures.
func TestTablesSyncedOnce(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSCP, core.ModePCP} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := &syncCountFS{FS: storage.NewMemFS(), syncs: map[string]int{}}
			opts := smallOpts(fs)
			opts.Compaction.Mode = mode
			db := mustOpen(t, opts)
			defer db.Close()
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, 100)
			for i := 0; i < 6000; i++ {
				rng.Read(val)
				if err := db.Put([]byte(fmt.Sprintf("sy%06d", rng.Intn(20000))), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			fs.mu.Lock()
			defer fs.mu.Unlock()
			if st.Flushes == 0 || st.Compactions == 0 || int64(len(fs.syncs)) <= st.Flushes {
				t.Fatalf("%d flushes, %d compactions, %d tables: want flush and compaction outputs",
					st.Flushes, st.Compactions, len(fs.syncs))
			}
			for name, n := range fs.syncs {
				if n != 1 {
					t.Errorf("%s synced %d times, want 1", name, n)
				}
			}
		})
	}
}
