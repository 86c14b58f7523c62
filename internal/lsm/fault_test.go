package lsm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"pcplsm/internal/storage"
)

// TestFlushFailureSurfacesToWriters: a failing table write during flush
// becomes a background error that write paths report instead of hanging.
func TestFlushFailureSurfacesToWriters(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	opts := smallOpts(fault)
	db := mustOpen(t, opts)
	defer db.Close()

	// Let a little data in, then make every subsequent file write fail.
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("fk%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	fault.Arm(storage.FaultWrite, 1, true)

	// Writing until rotation forces a flush, which must fail and surface.
	var sawErr error
	for i := 0; i < 200_000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("fill%08d", i)), make([]byte, 100)); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Fatal("background flush failure never surfaced to writers")
	}
	if !errors.Is(sawErr, storage.ErrInjected) {
		t.Fatalf("surfaced error %v does not wrap the injected fault", sawErr)
	}
}

// TestCompactionFailureIsReported: an injected failure inside compaction
// output writing propagates through CompactLevel.
func TestCompactionFailureIsReported(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	opts := smallOpts(fault)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("ck%05d", i)), make([]byte, 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fail the first create after this point: the compaction's output.
	fault.Arm(storage.FaultCreate, 1, true)
	if err := db.CompactLevel(0); err == nil {
		t.Fatal("compaction with failing output creation reported success")
	}
	fault.Disarm(storage.FaultCreate)

	// The tree must still be readable and retryable after the failure.
	if _, err := db.Get([]byte("ck00042")); err != nil {
		t.Fatalf("read after failed compaction: %v", err)
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatalf("retry compaction failed: %v", err)
	}
	if _, err := db.Get([]byte("ck00042")); err != nil {
		t.Fatalf("read after retried compaction: %v", err)
	}
}

// TestOpenFailsCleanlyOnManifestFault: Open propagates manifest write
// failures instead of opening a half-initialized store.
func TestOpenFailsCleanlyOnManifestFault(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	fault.Arm(storage.FaultSync, 1, true) // manifest append syncs
	opts := smallOpts(fault)
	if _, err := Open(opts); err == nil {
		t.Fatal("Open with failing manifest sync should fail")
	}
}

// fastRetry is the test retry policy: a real budget with negligible backoff.
func fastRetry() BackgroundRetryPolicy {
	return BackgroundRetryPolicy{Max: 5, BaseDelay: 200 * time.Microsecond}
}

// TestTransientFlushErrorRetries: a one-shot table-write failure during a
// background flush is retried and succeeds — nothing sticky, writes resume.
func TestTransientFlushErrorRetries(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	opts := smallOpts(fault)
	opts.BackgroundRetry = fastRetry()
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("tk%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	fault.ArmFault(storage.Fault{Op: storage.FaultWrite, Suffix: ".sst", N: 1})
	if err := db.Flush(); err != nil {
		t.Fatalf("flush with transient fault: %v", err)
	}
	if got := db.Stats().BackgroundRetries; got < 1 {
		t.Fatalf("BackgroundRetries = %d, want >= 1", got)
	}
	if err := db.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("write after retried flush: %v", err)
	}
	if _, err := db.Get([]byte("tk0000")); err != nil {
		t.Fatalf("read after retried flush: %v", err)
	}
}

// TestTransientCompactionErrorRetries: a one-shot failure creating a
// compaction output no longer bricks the store — the scheduler retries, the
// compaction completes, and writes resume.
func TestTransientCompactionErrorRetries(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	opts := smallOpts(fault)
	opts.L0CompactionTrigger = 2
	opts.BackgroundRetry = fastRetry()
	db := mustOpen(t, opts)
	defer db.Close()

	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := db.Put([]byte(fmt.Sprintf("ck%05d", i)), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 300)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put(300, 600)
	// The next .sst create is the second flush's table; the one after is the
	// compaction output (L0 reaches the trigger of 2), which fails once.
	fault.ArmFault(storage.Fault{Op: storage.FaultCreate, Suffix: ".sst", N: 2})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatalf("compaction with transient fault never drained: %v", err)
	}
	s := db.Stats()
	if s.BackgroundRetries < 1 {
		t.Fatalf("BackgroundRetries = %d, want >= 1", s.BackgroundRetries)
	}
	if s.Compactions < 1 {
		t.Fatalf("Compactions = %d, want >= 1 (retry must complete the work)", s.Compactions)
	}
	if s.BackgroundErrors != 0 {
		t.Fatalf("BackgroundErrors = %d after a recovered transient fault", s.BackgroundErrors)
	}
	if err := db.Put([]byte("resume"), []byte("v")); err != nil {
		t.Fatalf("write after retried compaction: %v", err)
	}
	if _, err := db.Get([]byte("ck00042")); err != nil {
		t.Fatalf("read after retried compaction: %v", err)
	}
}

// TestTransientPCPStageFaultRetries: a transient failure injected into a
// parallel PCP write-stage worker surfaces exactly once through the
// pipeline's error path, the scheduler retries under BackgroundRetry, and
// the failed attempt leaks neither pending outputs nor leased pipeline
// tokens.
func TestTransientPCPStageFaultRetries(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	opts := smallOpts(fault)
	opts.L0CompactionTrigger = 2
	opts.BackgroundRetry = fastRetry()
	opts.Compaction.ComputeParallel = 2
	opts.Compaction.IOParallel = 2
	opts.PipelineComputeTokens = 8
	opts.PipelineIOTokens = 8
	db := mustOpen(t, opts)
	defer db.Close()

	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := db.Put([]byte(fmt.Sprintf("pk%05d", i)), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 300)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put(300, 600)
	// The next .sst create is the second flush's table; the one after is a
	// compaction output created by one of the two PCP write workers. It
	// fails once, non-sticky.
	fault.ArmFault(storage.Fault{Op: storage.FaultCreate, Suffix: ".sst", N: 2})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatalf("PCP compaction with transient stage fault never drained: %v", err)
	}

	s := db.Stats()
	if s.BackgroundRetries < 1 {
		t.Fatalf("BackgroundRetries = %d, want >= 1", s.BackgroundRetries)
	}
	if s.Compactions < 1 || s.PipelinedCompactions < 1 {
		t.Fatalf("Compactions = %d, PipelinedCompactions = %d, want both >= 1",
			s.Compactions, s.PipelinedCompactions)
	}
	if s.BackgroundErrors != 0 {
		t.Fatalf("BackgroundErrors = %d after a recovered transient fault", s.BackgroundErrors)
	}
	if s.PipelineComputeLeased != 0 || s.PipelineIOLeased != 0 {
		t.Fatalf("leaked pipeline tokens: leased = %d/%d after WaitIdle",
			s.PipelineComputeLeased, s.PipelineIOLeased)
	}
	db.mu.Lock()
	pending := len(db.pendingOutputs)
	db.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d pending outputs leaked across the failed pipeline attempt", pending)
	}
	if err := db.Put([]byte("resume"), []byte("v")); err != nil {
		t.Fatalf("write after retried PCP compaction: %v", err)
	}
	if _, err := db.Get([]byte("pk00042")); err != nil {
		t.Fatalf("read after retried PCP compaction: %v", err)
	}
}

// TestRetryBudgetExhaustionTurnsSticky: a persistent transient fault
// escalates after Options.BackgroundRetry.Max consecutive failures, leaving
// the store read-only with ErrBackgroundError.
func TestRetryBudgetExhaustionTurnsSticky(t *testing.T) {
	inner := storage.NewMemFS()
	fault := storage.NewFaultFS(inner)
	opts := smallOpts(fault)
	opts.BackgroundRetry = BackgroundRetryPolicy{Max: 2, BaseDelay: 100 * time.Microsecond}
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("xk%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	fault.ArmFault(storage.Fault{Op: storage.FaultWrite, Suffix: ".sst", N: 1, Sticky: true})
	if err := db.Flush(); !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("flush after retry exhaustion = %v, want ErrBackgroundError", err)
	}
	s := db.Stats()
	if s.BackgroundRetries < 2 {
		t.Fatalf("BackgroundRetries = %d, want >= 2", s.BackgroundRetries)
	}
	if s.BackgroundErrors < 1 {
		t.Fatalf("BackgroundErrors = %d, want >= 1", s.BackgroundErrors)
	}
	if err := db.Put([]byte("nope"), []byte("v")); !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("Put on poisoned store = %v, want ErrBackgroundError", err)
	}
	// Reads keep working in the degraded state.
	if _, err := db.Get([]byte("xk0000")); err != nil {
		t.Fatalf("read on poisoned store: %v", err)
	}
}

// TestCorruptionQuarantinesTable: flipping bytes inside a table's data
// block surfaces as ErrCorruption/ErrQuarantined on reads of that block,
// counts in stats, and quarantines only the damaged table — reads of
// intact data keep working and the store stays writable. (Before the
// integrity subsystem this degraded the whole store to read-only; scoped
// quarantine is the replacement, with read-only reserved for WAL and
// manifest damage.)
func TestCorruptionQuarantinesTable(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)

	const n = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("ck%05d", i)) }
	// Two flushes → two L0 tables with disjoint ranges (auto-compaction is
	// off), so quarantining the damaged one leaves the other serving.
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if i == n/2-1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first data block of the lowest-numbered table.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var sst string
	for _, nm := range names {
		if strings.HasSuffix(nm, ".sst") {
			sst = nm
			break
		}
	}
	if sst == "" {
		t.Fatal("no table on disk after flush")
	}
	data, err := storage.ReadAll(fs, sst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 140 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := storage.WriteFile(fs, sst, data); err != nil {
		t.Fatal(err)
	}

	db = mustOpen(t, opts)
	defer db.Close()
	var sawCorruption bool
	var goodKey []byte
	for i := 0; i < n; i++ {
		_, err := db.Get(key(i))
		switch {
		case err == nil:
			goodKey = key(i)
		case errors.Is(err, ErrCorruption):
			sawCorruption = true
			if errors.Is(err, ErrBackgroundError) {
				t.Fatalf("table corruption %v implies ErrBackgroundError; want scoped quarantine, not read-only", err)
			}
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("corruption error %v does not match ErrQuarantined", err)
			}
		case errors.Is(err, ErrNotFound):
		default:
			t.Fatalf("Get(%s): unexpected error %v", key(i), err)
		}
	}
	if !sawCorruption {
		t.Fatal("no read surfaced ErrCorruption from the damaged block")
	}
	if goodKey == nil {
		t.Fatal("corruption leaked beyond the damaged table: every read failed")
	}
	s := db.Stats()
	if s.CorruptionsDetected < 1 {
		t.Fatalf("CorruptionsDetected = %d, want >= 1", s.CorruptionsDetected)
	}
	if s.QuarantinedTables != 1 {
		t.Fatalf("QuarantinedTables = %d, want 1", s.QuarantinedTables)
	}
	// The store stays writable: only the damaged table's range degrades.
	if err := db.Put([]byte("still-writable"), []byte("v")); err != nil {
		t.Fatalf("Put on quarantined store = %v, want success", err)
	}
	if _, err := db.Get(goodKey); err != nil {
		t.Fatalf("intact key unreadable with a table quarantined: %v", err)
	}
}

// TestManifestRenameCrashWindow: a power cut between writing the new
// manifest snapshot and renaming it over the old one recovers the previous
// version with no acknowledged data lost.
func TestManifestRenameCrashWindow(t *testing.T) {
	inner := storage.NewMemFS()
	opts := smallOpts(inner)
	db := mustOpen(t, opts)
	key := func(i int) []byte { return []byte(fmt.Sprintf("mk%05d", i)) }
	val := func(i int) string { return fmt.Sprintf("mv%05d", i) }
	for i := 0; i < 200; i++ {
		if err := db.Put(key(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 300; i++ { // these stay in the WAL
		if err := db.Put(key(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen through a FaultFS that cuts power at the manifest rename: the
	// new snapshot is fully written and synced, but never installed.
	fault := storage.NewSeededFaultFS(inner, 11)
	fault.ArmFault(storage.Fault{Op: storage.FaultRename, N: 1, Cut: true})
	if _, err := Open(smallOpts(fault)); err == nil {
		t.Fatal("Open through a power cut at the manifest rename should fail")
	}
	img, err := fault.CrashImage()
	if err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, smallOpts(img))
	defer db.Close()
	for i := 0; i < 300; i++ {
		got, err := db.Get(key(i))
		if err != nil || string(got) != val(i) {
			t.Fatalf("key %s after rename-window crash: %q, %v", key(i), got, err)
		}
	}
}

// TestWALTornTailRecovery: recovery truncates at the first damaged WAL
// record — a torn tail loses at most the final unsynced batch, atomically.
func TestWALTornTailRecovery(t *testing.T) {
	t.Run("grouped", func(t *testing.T) {
		for _, variant := range []string{"truncate", "garbage"} {
			t.Run(variant, func(t *testing.T) {
				fs := storage.NewMemFS()
				opts := smallOpts(fs)
				opts.MemtableSize = 1 << 20 // keep everything in the WAL
				db := mustOpen(t, opts)
				const batches = 50
				for i := 0; i < batches; i++ {
					var b Batch
					b.Put([]byte(fmt.Sprintf("a%02d", i)), []byte(fmt.Sprintf("va%02d", i)))
					b.Put([]byte(fmt.Sprintf("b%02d", i)), []byte(fmt.Sprintf("vb%02d", i)))
					if err := db.Write(&b); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				names, err := fs.List()
				if err != nil {
					t.Fatal(err)
				}
				var walName string
				for _, nm := range names {
					if strings.HasSuffix(nm, ".log") {
						walName = nm
					}
				}
				if walName == "" {
					t.Fatal("no WAL on disk")
				}
				data, err := storage.ReadAll(fs, walName)
				if err != nil {
					t.Fatal(err)
				}
				switch variant {
				case "truncate":
					data = data[:len(data)-5]
				case "garbage":
					data = append(data, 0xde, 0xad, 0xbe, 0xef, 0x51, 0x52, 0x53, 0x54, 0x55)
				}
				if err := storage.WriteFile(fs, walName, data); err != nil {
					t.Fatal(err)
				}

				db = mustOpen(t, opts)
				defer db.Close()
				full := batches
				if variant == "truncate" {
					full = batches - 1
				}
				for i := 0; i < full; i++ {
					for _, pfx := range []string{"a", "b"} {
						k := fmt.Sprintf("%s%02d", pfx, i)
						got, err := db.Get([]byte(k))
						if err != nil || string(got) != "v"+k {
							t.Fatalf("batch %d key %s = %q, %v", i, k, got, err)
						}
					}
				}
				if variant == "truncate" {
					// The damaged final batch must vanish atomically.
					_, errA := db.Get([]byte(fmt.Sprintf("a%02d", batches-1)))
					_, errB := db.Get([]byte(fmt.Sprintf("b%02d", batches-1)))
					if !errors.Is(errA, ErrNotFound) || !errors.Is(errB, ErrNotFound) {
						t.Fatalf("torn final batch partially visible: a=%v b=%v", errA, errB)
					}
				}
			})
		}
	})
}

// TestFailedManifestAppendChangesNothing: when the manifest append of a
// live flush or compaction fails, the edit is not applied — the version is
// the one before the unit ran — the store turns read-only, and a reopen
// returns every acknowledged key.
func TestFailedManifestAppendChangesNothing(t *testing.T) {
	for _, unit := range []string{"flush", "compaction"} {
		t.Run(unit, func(t *testing.T) {
			inner := storage.NewMemFS()
			fault := storage.NewFaultFS(inner)
			opts := smallOpts(fault)
			opts.DisableAutoCompaction = true
			db := mustOpen(t, opts)
			const n = 300
			key := func(i int) []byte { return []byte(fmt.Sprintf("fa%04d", i)) }
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
				if unit == "compaction" && i%100 == 99 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := db.Version()

			fault.ArmFault(storage.Fault{Op: storage.FaultWrite, Suffix: "MANIFEST"})
			var err error
			if unit == "flush" {
				err = db.Flush()
			} else {
				err = db.CompactLevel(0)
			}
			if err == nil || fault.Hits(storage.FaultWrite) != 1 {
				t.Fatalf("%s with a failing manifest append = %v (%d faults fired)",
					unit, err, fault.Hits(storage.FaultWrite))
			}
			if after := db.Version(); after != before {
				t.Fatalf("failed %s changed the version:\n%s->\n%s", unit, versionDump(before), versionDump(after))
			}
			if err := db.Put([]byte("after"), []byte("v")); !errors.Is(err, ErrBackgroundError) {
				t.Fatalf("Put after a failed manifest append = %v, want sticky ErrBackgroundError", err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			opts.FS = inner
			db = mustOpen(t, opts)
			defer db.Close()
			for i := 0; i < n; i++ {
				if _, err := db.Get(key(i)); err != nil {
					t.Fatalf("acknowledged key %s after reopen: %v", key(i), err)
				}
			}
		})
	}
}
