package pcplsm

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenDefaultsInMemory(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("missing")); !IsNotFound(err) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestOpenOnDiskAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("data directory missing")
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 1000; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatalf("key k%05d lost across reopen: %v", i, err)
		}
	}
}

func TestSimulatedStorageModes(t *testing.T) {
	for _, sim := range []*SimulatedStorage{
		{Device: "ssd", TimeScale: 0},
		{Device: "hdd", Disks: 2, RAID0: true, TimeScale: 0},
		{Device: "nvme", Disks: 3, TimeScale: 0},
	} {
		db, err := Open(Options{
			Simulate:      sim,
			MemtableBytes: 32 << 10,
			TableBytes:    16 << 10,
			BlockBytes:    1 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			db.Put([]byte(fmt.Sprintf("sk%06d", i)), []byte("someval"))
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		ds := db.DeviceStats()
		if len(ds) == 0 {
			t.Fatal("no device stats for simulated store")
		}
		var bytes int64
		for _, s := range ds {
			bytes += s.WriteBytes
		}
		if bytes == 0 {
			t.Fatal("simulated devices saw no writes")
		}
		db.ResetDeviceStats()
		if db.DeviceStats()[0].WriteBytes != 0 {
			t.Fatal("ResetDeviceStats did not clear")
		}
		db.Close()
	}
}

func TestCompactionModesWork(t *testing.T) {
	for _, c := range []Compaction{
		{Mode: "scp"},
		{Mode: "pcp"},
		{Mode: "pcp", ComputeWorkers: 3},
		{Mode: "pcp", IOWorkers: 3},
	} {
		db, err := Open(Options{
			Compaction:    c,
			MemtableBytes: 32 << 10,
			TableBytes:    16 << 10,
			BlockBytes:    1 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			db.Put([]byte(fmt.Sprintf("mk%06d", i%1500)), []byte("modeval"))
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		st := db.Stats()
		if st.Compactions == 0 {
			t.Fatalf("%+v: no compactions ran", c)
		}
		for i := 0; i < 1500; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("mk%06d", i))); err != nil {
				t.Fatalf("%+v: key lost: %v", c, err)
			}
		}
		db.Close()
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(Options{Compaction: Compaction{Mode: "warp"}}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := Open(Options{Compression: "lz77"}); err == nil {
		t.Fatal("bad codec accepted")
	}
	if _, err := Open(Options{Simulate: &SimulatedStorage{Device: "tape"}}); err == nil {
		t.Fatal("bad device accepted")
	}
}

func TestBatchAndIterator(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, string(it.Key())+"="+string(it.Value()))
	}
	if len(got) != 1 || got[0] != "b=2" {
		t.Fatalf("scan = %v", got)
	}
}

func TestManualFlushAndCompact(t *testing.T) {
	db, err := Open(Options{
		DisableAutoCompaction: true,
		MemtableBytes:         32 << 10,
		TableBytes:            16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("fk%05d", i)), []byte("flushval"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	levels := db.Levels()
	if levels[0] == 0 {
		t.Fatal("flush did not create an L0 table")
	}
	if err := db.Compact(0); err != nil {
		t.Fatal(err)
	}
	levels = db.Levels()
	if levels[0] != 0 || levels[1] == 0 {
		t.Fatalf("compaction did not move data down: %v", levels)
	}
	if st := db.Stats(); st.LastCompaction.Bandwidth() <= 0 {
		t.Fatal("no compaction bandwidth recorded")
	}
}

func TestSnapshotPublicAPI(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("before"))
	snap, err := db.GetSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("after"))
	if v, err := snap.Get([]byte("k")); err != nil || string(v) != "before" {
		t.Fatalf("snapshot read = %q, %v", v, err)
	}
	snap.Release()
	if _, err := snap.Get([]byte("k")); err != ErrSnapshotReleased {
		t.Fatalf("released read = %v", err)
	}
	if v, _ := db.Get([]byte("k")); string(v) != "after" {
		t.Fatalf("live read = %q", v)
	}
}

func TestMetricsPublicAPI(t *testing.T) {
	db, err := Open(Options{
		BackgroundWorkers: 2,
		MemtableBytes:     32 << 10,
		TableBytes:        16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("gm%06d", i)), []byte("metricval"))
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m["lsm_puts"] != 3000 {
		t.Fatalf("lsm_puts = %d, want 3000", m["lsm_puts"])
	}
	if m["lsm_flushes"] == 0 {
		t.Fatal("lsm_flushes missing from metrics")
	}
	if m["lsm_compactions_inflight"] != 0 || m["lsm_flushes_inflight"] != 0 {
		t.Fatalf("idle store reports in-flight work: %v", m)
	}
	if _, ok := m["lsm_compactions_inflight_l1"]; !ok {
		t.Fatal("per-level compaction gauges missing")
	}
	if m["lsm_max_concurrent_background"] < 1 {
		t.Fatal("no background concurrency recorded")
	}
}

func TestCompactRangePublicAPI(t *testing.T) {
	db, err := Open(Options{MemtableBytes: 32 << 10, TableBytes: 16 << 10, DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("cr%05d", i)), []byte("v"))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	levels := db.Levels()
	if levels[0] != 0 {
		t.Fatalf("major compaction left L0 tables: %v", levels)
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("cr%05d", i))); err != nil {
			t.Fatalf("key lost: %v", err)
		}
	}
}

// TestEmptyCompressionIsNone: a zero Options.Compression writes the same
// uncompressed tables as naming "none"; "snappy" must be asked for.
func TestEmptyCompressionIsNone(t *testing.T) {
	flushBytes := func(compression string) int64 {
		t.Helper()
		db, err := Open(Options{Compression: compression, DisableAutoCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		val := make([]byte, 200)
		for i := 0; i < 5000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		return db.Stats().FlushBytes
	}
	empty, none, snappy := flushBytes(""), flushBytes("none"), flushBytes("snappy")
	if empty != none {
		t.Fatalf("Compression \"\" flushed %d bytes, \"none\" %d", empty, none)
	}
	if snappy >= none {
		t.Fatalf("snappy flushed %d bytes, not less than none's %d", snappy, none)
	}
}
