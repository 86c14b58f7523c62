package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pcplsm/internal/ikey"
	"pcplsm/internal/storage"
	"pcplsm/internal/wal"
)

// walGateFS wraps an FS and intercepts writes to .log files: arm() blocks
// the next one until release() (holding a commit group's leader mid-append
// at a known point), and failNext() makes the next one return
// storage.ErrInjected. The block/fail decision is captured before blocking,
// so a write armed to block and then released proceeds normally even if a
// failure was armed while it was blocked.
type walGateFS struct {
	storage.FS
	mu      sync.Mutex
	blocked bool
	failed  bool
	entered chan struct{}
	release chan struct{}
}

func newWALGateFS(inner storage.FS) *walGateFS {
	return &walGateFS{
		FS:      inner,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (g *walGateFS) arm()      { g.mu.Lock(); g.blocked = true; g.mu.Unlock() }
func (g *walGateFS) failNext() { g.mu.Lock(); g.failed = true; g.mu.Unlock() }

func (g *walGateFS) Create(name string) (storage.File, error) {
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".log") {
		return &walGateFile{File: f, g: g}, nil
	}
	return f, nil
}

type walGateFile struct {
	storage.File
	g *walGateFS
}

func (f *walGateFile) Write(p []byte) (int, error) {
	g := f.g
	g.mu.Lock()
	block, fail := g.blocked, g.failed
	if block {
		g.blocked = false
	}
	if fail {
		g.failed = false
	}
	g.mu.Unlock()
	if block {
		g.entered <- struct{}{}
		<-g.release
	}
	if fail {
		return 0, storage.ErrInjected
	}
	return f.File.Write(p)
}

// gateOpts is smallOpts without auto-compaction and with a memtable large
// enough that the gate tests never rotate the WAL.
func gateOpts(fs storage.FS) Options {
	opts := smallOpts(fs)
	opts.MemtableSize = 4 << 20
	opts.DisableAutoCompaction = true
	return opts
}

// holdLeaderAndQueue blocks one Put mid-WAL-append and queues followers
// writers behind it, returning the leader's result channel and the
// followers' error channel. It fails the test if the queue never fills.
func holdLeaderAndQueue(t *testing.T, db *DB, gate *walGateFS, followers int) (chan error, chan error) {
	t.Helper()
	gate.arm()
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- db.Put([]byte("leader-key"), []byte("leader-val")) }()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached its WAL write")
	}

	followerDone := make(chan error, followers)
	for i := 0; i < followers; i++ {
		i := i
		go func() {
			followerDone <- db.Put([]byte(fmt.Sprintf("follower-%02d", i)), []byte("v"))
		}()
	}
	// The leader occupies the queue front; wait for all followers to line
	// up behind it so the next group deterministically contains them all.
	deadline := time.Now().Add(10 * time.Second)
	for {
		db.writeMu.Lock()
		n := len(db.writers)
		db.writeMu.Unlock()
		if n == followers+1 {
			return leaderDone, followerDone
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer queue has %d entries, want %d", n, followers+1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitMergesQueuedWriters holds a leader in its WAL append,
// queues 8 writers behind it, and proves they commit as one group: one
// additional WAL record, one group of size 8.
func TestGroupCommitMergesQueuedWriters(t *testing.T) {
	gate := newWALGateFS(storage.NewMemFS())
	db := mustOpen(t, gateOpts(gate))
	defer db.Close()

	const followers = 8
	leaderDone, followerDone := holdLeaderAndQueue(t, db, gate, followers)
	close(gate.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader put: %v", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-followerDone; err != nil {
			t.Fatalf("follower put: %v", err)
		}
	}

	s := db.Stats()
	if s.WriteGroups != 2 {
		t.Errorf("WriteGroups = %d, want 2 (leader alone + merged followers)", s.WriteGroups)
	}
	if s.GroupedWrites != followers+1 {
		t.Errorf("GroupedWrites = %d, want %d", s.GroupedWrites, followers+1)
	}
	if s.MaxWriteGroup != followers {
		t.Errorf("MaxWriteGroup = %d, want %d", s.MaxWriteGroup, followers)
	}
	if got := db.Seq(); got != followers+1 {
		t.Errorf("Seq = %d, want %d", got, followers+1)
	}
	for i := 0; i < followers; i++ {
		k := fmt.Sprintf("follower-%02d", i)
		if v, err := db.Get([]byte(k)); err != nil || string(v) != "v" {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

// TestGroupAppendFailureFailsAllWriters arms a WAL-write fault for the
// merged followers' record: every writer in the failed group must get the
// injected error, no sequence may be allocated, and the DB must refuse
// further writes (the WAL writer's position is no longer trustworthy).
func TestGroupAppendFailureFailsAllWriters(t *testing.T) {
	gate := newWALGateFS(storage.NewMemFS())
	db := mustOpen(t, gateOpts(gate))
	defer db.Close()

	const followers = 8
	leaderDone, followerDone := holdLeaderAndQueue(t, db, gate, followers)
	gate.failNext() // the released leader's write was already cleared to pass
	close(gate.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader put: %v", err)
	}
	seqAfterLeader := db.Seq()

	for i := 0; i < followers; i++ {
		err := <-followerDone
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("follower %d error = %v, want the injected fault", i, err)
		}
	}
	if got := db.Seq(); got != seqAfterLeader {
		t.Errorf("failed group allocated sequences: Seq %d -> %d", seqAfterLeader, got)
	}
	// The group's entries must not be readable.
	if _, err := db.Get([]byte("follower-00")); !errors.Is(err, ErrNotFound) {
		t.Errorf("entry of failed group visible: %v", err)
	}
	// The failure poisons the commit path: the WAL position is unknown.
	if err := db.Put([]byte("after"), []byte("v")); err == nil {
		t.Error("write after WAL append failure succeeded")
	}
}

// TestWriteFailureNoSeqGap is the regression test for the sequence-gap bug:
// the pre-pipeline Write advanced db.seq before wal.Append and left it
// advanced on failure, so the WAL and the sequence counter disagreed. The
// group commit path must allocate sequences only for durably appended
// groups, keeping recovery gap-free.
func TestWriteFailureNoSeqGap(t *testing.T) {
	t.Run("grouped", func(t *testing.T) {
		fault := storage.NewFaultFS(storage.NewMemFS())
		opts := gateOpts(fault)
		db := mustOpen(t, opts)

		if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
			t.Fatal(err)
		}
		seqBefore := db.Seq()

		fault.Arm(storage.FaultWrite, 1, true)
		if err := db.Put([]byte("k2"), []byte("v2")); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("write with failing WAL = %v, want injected fault", err)
		}
		if got := db.Seq(); got != seqBefore {
			t.Fatalf("failed write advanced Seq: %d -> %d", seqBefore, got)
		}
		if err := db.Put([]byte("k3"), []byte("v3")); err == nil {
			t.Fatal("write after WAL failure succeeded")
		}
		fault.Disarm(storage.FaultWrite)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery: k1 present, the failed writes absent, and the next
		// allocation continues exactly where the WAL ends — no gap.
		db = mustOpen(t, opts)
		defer db.Close()
		if v, err := db.Get([]byte("k1")); err != nil || string(v) != "v1" {
			t.Fatalf("Get(k1) after reopen = %q, %v", v, err)
		}
		if _, err := db.Get([]byte("k2")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed write resurrected: %v", err)
		}
		if got := db.Seq(); got != seqBefore {
			t.Fatalf("recovered Seq = %d, want %d", got, seqBefore)
		}
		if err := db.Put([]byte("k4"), []byte("v4")); err != nil {
			t.Fatal(err)
		}
		if got := db.Seq(); got != seqBefore+1 {
			t.Fatalf("post-recovery Seq = %d, want contiguous %d", got, seqBefore+1)
		}
	})
}

// TestSerialFallbackWALBitForBit drives a single-writer operation sequence
// through the group commit path and requires its WAL to be byte-identical
// to the serial LevelDB-baseline log: one record per batch, encoded by
// Batch.encodeTo at the batch's base sequence and appended through
// wal.Writer. The store must then recover to the written state.
func TestSerialFallbackWALBitForBit(t *testing.T) {
	fs := storage.NewMemFS()
	opts := gateOpts(fs)
	db := mustOpen(t, opts)

	refFS := storage.NewMemFS()
	refFile, err := refFS.Create("ref.log")
	if err != nil {
		t.Fatal(err)
	}
	ref := wal.NewWriter(refFile)
	model := map[string]string{}
	var rec []byte
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		var b Batch
		switch rng.Intn(4) {
		case 0:
			for j := 0; j < 1+rng.Intn(5); j++ {
				b.Put([]byte(fmt.Sprintf("b%04d-%d", i, j)), []byte(fmt.Sprintf("bv%d", rng.Intn(1000))))
			}
			b.Delete([]byte(fmt.Sprintf("b%04d-0", i-1)))
		case 1:
			b.Delete([]byte(fmt.Sprintf("k%04d", rng.Intn(300))))
		default:
			b.Put([]byte(fmt.Sprintf("k%04d", rng.Intn(300))), []byte(fmt.Sprintf("v%d", i)))
		}
		rec = b.encodeTo(rec[:0], db.Seq()+1)
		if err := ref.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := db.Write(&b); err != nil {
			t.Fatal(err)
		}
		for _, e := range b.entries {
			if e.kind == ikey.KindDelete {
				delete(model, string(e.key))
			} else {
				model[string(e.key)] = string(e.val)
			}
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	walName := walFileName(db.walNum)
	seq := db.Seq()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadAll(fs, walName)
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.ReadAll(refFS, "ref.log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("WAL bytes differ: grouped %d bytes, per-batch records %d bytes", len(got), len(want))
	}

	db = mustOpen(t, opts)
	defer db.Close()
	if got := db.Seq(); got != seq {
		t.Fatalf("recovered seq %d, want %d", got, seq)
	}
	dump := map[string]string{}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		dump[string(it.Key())] = string(it.Value())
	}
	if len(dump) != len(model) {
		t.Fatalf("recovered %d keys, wrote %d", len(dump), len(model))
	}
	for k, v := range model {
		if dump[k] != v {
			t.Fatalf("recovered value differs at %q: %q, want %q", k, dump[k], v)
		}
	}
}

// TestGroupCommitStressRandom hammers the commit pipeline with concurrent
// writers using mixed batch sizes while point readers and snapshot readers
// run (run under -race). Snapshot re-reads must be stable — the visibility
// watermark must never expose a half-applied group — and the final state
// must match every writer's last acknowledged value.
func TestGroupCommitStressRandom(t *testing.T) {
	for _, syncWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncWAL), func(t *testing.T) {
			fs := storage.NewMemFS()
			opts := smallOpts(fs)
			opts.SyncWAL = syncWAL
			opts.MemtableSize = 16 << 10
			db := mustOpen(t, opts)

			const writers = 6
			opsPerWriter := 800
			if testing.Short() {
				opsPerWriter = 200
			}
			finals := make([]map[string]string, writers)
			totalWrites := int64(0)
			var totalMu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				finals[w] = map[string]string{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(500 + w)))
					writes := int64(0)
					for i := 0; i < opsPerWriter; {
						var b Batch
						n := 1 + rng.Intn(6)
						for j := 0; j < n && i < opsPerWriter; j++ {
							k := fmt.Sprintf("w%d-%04d", w, rng.Intn(300))
							if rng.Intn(10) == 0 {
								b.Delete([]byte(k))
								delete(finals[w], k)
							} else {
								v := fmt.Sprintf("v%d-%d", w, i)
								b.Put([]byte(k), []byte(v))
								finals[w][k] = v
							}
							i++
						}
						if err := db.Write(&b); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						writes++
					}
					totalMu.Lock()
					totalWrites += writes
					totalMu.Unlock()
				}()
			}

			stop := make(chan struct{})
			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				rng := rand.New(rand.NewSource(17))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := fmt.Sprintf("w%d-%04d", rng.Intn(writers), rng.Intn(300))
					if _, err := db.Get([]byte(k)); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("reader: Get(%s): %v", k, err)
						return
					}
				}
			}()
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				rng := rand.New(rand.NewSource(18))
				for {
					select {
					case <-stop:
						return
					default:
					}
					seqBefore := db.Seq()
					snap, err := db.GetSnapshot()
					if err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
					if snap.Seq() < seqBefore {
						t.Errorf("watermark regressed: snapshot %d < earlier Seq %d", snap.Seq(), seqBefore)
					}
					k := []byte(fmt.Sprintf("w%d-%04d", rng.Intn(writers), rng.Intn(300)))
					v1, err1 := snap.Get(k)
					v2, err2 := snap.Get(k)
					if (err1 == nil) != (err2 == nil) || string(v1) != string(v2) {
						t.Errorf("snapshot unstable at seq %d: %q,%v then %q,%v", snap.Seq(), v1, err1, v2, err2)
					}
					snap.Release()
				}
			}()

			wg.Wait()
			close(stop)
			rwg.Wait()
			if t.Failed() {
				db.Close()
				return
			}

			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			s := db.Stats()
			if s.GroupedWrites != totalWrites {
				t.Errorf("GroupedWrites = %d, want %d (every Write in exactly one group)", s.GroupedWrites, totalWrites)
			}
			if s.WriteGroups > s.GroupedWrites || s.WriteGroups <= 0 {
				t.Errorf("WriteGroups = %d out of range (GroupedWrites %d)", s.WriteGroups, s.GroupedWrites)
			}
			if syncWAL && s.WALSyncs != s.WriteGroups {
				t.Errorf("WALSyncs = %d, want one per group (%d)", s.WALSyncs, s.WriteGroups)
			}
			if !syncWAL && s.WALSyncs != 0 {
				t.Errorf("WALSyncs = %d with SyncWAL off", s.WALSyncs)
			}
			verify := func() {
				t.Helper()
				for w := 0; w < writers; w++ {
					for k, want := range finals[w] {
						got, err := db.Get([]byte(k))
						if err != nil || string(got) != want {
							t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, want)
						}
					}
				}
			}
			verify()

			// Merged WAL records must recover to the same acknowledged state.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = mustOpen(t, opts)
			defer db.Close()
			verify()
		})
	}
}
