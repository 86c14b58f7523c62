// Package pcplsm is an LSM-tree key-value store with pipelined compaction,
// reproducing "Pipelined Compaction for the LSM-tree" (Zhang et al.,
// IPDPS 2014).
//
// The store is a LevelDB-style tree (memtable + WAL + leveled SSTables)
// whose background compaction engine is pluggable:
//
//   - SCP    — the conventional Sequential Compaction Procedure;
//   - PCP    — the paper's three-stage pipeline (read / compute / write);
//   - C-PPCP — PCP with a parallel compute stage (k cores);
//   - S-PPCP — PCP with parallel I/O stages (k disks).
//
// Storage can be a directory on the real file system, plain memory, or a
// simulated device (HDD/SSD/NVMe models with seek costs, bandwidth curves
// and per-device queueing) so the paper's I/O-bound vs CPU-bound regimes
// are reproducible on any machine.
//
// Quick start:
//
//	db, err := pcplsm.Open(pcplsm.Options{})            // in-memory
//	db, err := pcplsm.Open(pcplsm.Options{Dir: "/data"}) // on disk
//	err = db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
package pcplsm

import (
	"errors"
	"fmt"
	"time"

	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/device"
	"pcplsm/internal/lsm"
	"pcplsm/internal/storage"
)

// Errors re-exported from the engine.
var (
	// ErrNotFound is returned by Get for missing keys.
	ErrNotFound = lsm.ErrNotFound
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = lsm.ErrClosed
	// ErrSnapshotReleased is returned by reads on a released Snapshot.
	ErrSnapshotReleased = lsm.ErrSnapshotReleased
	// ErrBackgroundError marks a sticky background failure: the store has
	// degraded to read-only (Get and iterators keep working).
	ErrBackgroundError = lsm.ErrBackgroundError
	// ErrCorruption marks detected on-disk corruption; it implies
	// ErrBackgroundError.
	ErrCorruption = lsm.ErrCorruption
	// ErrQuarantined marks reads whose key range is covered by a table that
	// failed an integrity verification and was quarantined in scope. It
	// implies ErrCorruption but NOT ErrBackgroundError: the rest of the key
	// space keeps serving and the store stays writable.
	ErrQuarantined = lsm.ErrQuarantined
)

// BackgroundRetryPolicy bounds background retries of transient flush and
// compaction I/O errors.
type BackgroundRetryPolicy = lsm.BackgroundRetryPolicy

// Re-exported engine types. Batch collects atomic multi-key writes;
// Iterator scans a snapshot in key order; Stats carries cumulative
// counters including the compaction step breakdown; Snapshot is a pinned
// point-in-time read view (Release it when done).
type (
	Batch    = lsm.Batch
	Iterator = lsm.Iterator
	Stats    = lsm.Stats
	Snapshot = lsm.Snapshot
	// ScrubReport summarizes one manual integrity pass (DB.Scrub);
	// TableScrubResult is its per-table outcome.
	ScrubReport      = lsm.ScrubReport
	TableScrubResult = lsm.TableScrubResult
)

// Compaction selects and tunes the compaction procedure.
type Compaction struct {
	// Mode is "scp" or "pcp" (default "pcp").
	Mode string
	// SubtaskBytes is the target input size per pipeline sub-task
	// (default 512 KiB, the paper's sweet spot).
	SubtaskBytes int
	// ComputeWorkers parallelizes the compute stage (C-PPCP when > 1).
	ComputeWorkers int
	// IOWorkers parallelizes the read and write stages (S-PPCP when > 1).
	IOWorkers int
}

// SimulatedStorage configures device emulation.
type SimulatedStorage struct {
	// Device is "hdd", "ssd", "nvme" or "null".
	Device string
	// Disks is the number of simulated devices (default 1).
	Disks int
	// RAID0 stripes all files across the disks (like the paper's md
	// setup); otherwise whole files are placed round-robin.
	RAID0 bool
	// TimeScale multiplies simulated service times: 1.0 is real-time
	// fidelity, 0.1 runs 10× faster, 0 disables timing (functional only).
	TimeScale float64
}

// Options configure Open. The zero value opens an in-memory store with
// PCP compaction and the paper's size parameters.
type Options struct {
	// Dir, when set, stores data in this directory on the real file
	// system; otherwise everything lives in memory.
	Dir string
	// Simulate, when non-nil, interposes simulated devices between the
	// store and its backing memory.
	Simulate *SimulatedStorage

	// Compaction selects the procedure.
	Compaction Compaction

	// MemtableBytes (default 4 MiB), TableBytes (default 2 MiB) and
	// BlockBytes (default 4 KiB) set the tree geometry.
	MemtableBytes int
	TableBytes    int
	BlockBytes    int
	// MemtableShards partitions the memtable into independent arena-backed
	// skiplists by user-key hash so commit groups apply with parallel shard
	// writers. 0 selects the default of 4; 1 restores the single-skiplist
	// layout. Contents, scan order and WAL bytes are identical at any
	// setting. Values are clamped to [1, 64] and rounded up to a power of
	// two.
	MemtableShards int
	// Compression is "snappy" (default), "flate" or "none".
	Compression string
	// BloomBitsPerKey sizes per-table Bloom filters (0 = default 10 bits
	// per key, negative disables).
	BloomBitsPerKey int
	// BlockCacheBytes caps the decompressed-block read cache (0 = default
	// 8 MiB, negative disables). Compactions re-insert output blocks whose
	// key ranges were hot in the inputs, so the working set stays cached
	// across file renumbering.
	BlockCacheBytes int

	// BackgroundWorkers sizes the background scheduler's worker pool
	// (default 2). With two or more workers a memtable flush overlaps
	// in-flight compactions, and compactions on disjoint level pairs run in
	// parallel. 1 restores the strictly-serial pre-scheduler behavior.
	BackgroundWorkers int

	// SyncWrites fsyncs the WAL on every commit group. Concurrent writers
	// are merged by a leader into one WAL record and one fsync, and reads
	// never queue behind commit I/O.
	SyncWrites bool

	// DisableAutoCompaction turns the background scheduler off.
	DisableAutoCompaction bool
	// CompactionPolicy pins the picker: "leveling", "lazy-leveling" or
	// "coldest-range". Empty enables the metrics-driven self-tuner, which
	// switches between them as the workload shifts.
	CompactionPolicy string
	// DisableTrivialMove forces full rewrites even when a compaction input
	// overlaps nothing in the target level (by default such tables move by
	// metadata edit alone, with no table I/O).
	DisableTrivialMove bool
	// BackgroundRetry bounds the retries of transient background I/O
	// errors before the store degrades to read-only. Detected corruption
	// and WAL-append failures are never retried.
	BackgroundRetry BackgroundRetryPolicy

	// ParanoidChecks re-reads and verifies every flush and compaction
	// output against its just-written metadata (block checksums, key order,
	// entry count, whole-file digest) before the manifest references it. A
	// failing output is discarded and rebuilt; the extra read pass roughly
	// doubles the read cost of producing a table.
	ParanoidChecks bool
	// ScrubInterval enables the background integrity scrubber: every
	// interval it verifies one live table (yielding to compaction I/O) and
	// quarantines any that fail, cycling over the whole tree and resuming
	// across restarts. 0 disables background scrubbing; DB.Scrub still
	// works either way.
	ScrubInterval time.Duration
	// ScrubBytesPerSec rate-limits background scrub reads (0 = default
	// 8 MiB/s, negative = unlimited).
	ScrubBytesPerSec int64
	// Logf receives progress lines when set.
	Logf func(format string, args ...any)
}

// DB is a key-value store. All methods are safe for concurrent use.
type DB struct {
	inner *lsm.DB
	sim   *storage.SimFS
}

// Open creates or reopens a store.
func Open(opts Options) (*DB, error) {
	var fs storage.FS
	if opts.Dir != "" {
		osfs, err := storage.NewOSFS(opts.Dir)
		if err != nil {
			return nil, err
		}
		fs = osfs
	} else {
		fs = storage.NewMemFS()
	}

	var sim *storage.SimFS
	if opts.Simulate != nil {
		s := *opts.Simulate
		if s.Disks <= 0 {
			s.Disks = 1
		}
		model, err := device.ByName(s.Device)
		if err != nil {
			return nil, err
		}
		devs := make([]*device.Device, s.Disks)
		for i := range devs {
			devs[i] = device.New(model, s.TimeScale)
		}
		placement := storage.PlaceByFile
		if s.RAID0 {
			placement = storage.PlaceStripe
		}
		sim = storage.NewSimFS(fs, devs, placement, 0)
		fs = sim
	}

	kind, err := compress.ParseKind(opts.Compression)
	if err != nil {
		return nil, err
	}
	mode := core.ModePCP
	switch opts.Compaction.Mode {
	case "", "pcp":
	case "scp":
		mode = core.ModeSCP
	default:
		return nil, fmt.Errorf("pcplsm: unknown compaction mode %q", opts.Compaction.Mode)
	}

	inner, err := lsm.Open(lsm.Options{
		FS:              fs,
		MemtableSize:    int64(opts.MemtableBytes),
		MemtableShards:  opts.MemtableShards,
		TableSize:       int64(opts.TableBytes),
		BlockSize:       opts.BlockBytes,
		BloomBitsPerKey: opts.BloomBitsPerKey,
		BlockCacheBytes: int64(opts.BlockCacheBytes),
		Codec:           compress.MustByKind(kind),
		Compaction: core.Config{
			Mode:            mode,
			SubtaskSize:     int64(opts.Compaction.SubtaskBytes),
			ComputeParallel: opts.Compaction.ComputeWorkers,
			IOParallel:      opts.Compaction.IOWorkers,
		},
		BackgroundWorkers:     opts.BackgroundWorkers,
		SyncWAL:               opts.SyncWrites,
		DisableAutoCompaction: opts.DisableAutoCompaction,
		CompactionPolicy:      opts.CompactionPolicy,
		DisableTrivialMove:    opts.DisableTrivialMove,
		BackgroundRetry:       opts.BackgroundRetry,
		ParanoidChecks:        opts.ParanoidChecks,
		ScrubInterval:         opts.ScrubInterval,
		ScrubBytesPerSec:      opts.ScrubBytesPerSec,
		Logf:                  opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, sim: sim}, nil
}

// Put stores a key/value pair.
func (db *DB) Put(key, value []byte) error { return db.inner.Put(key, value) }

// Get returns the value of key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.inner.Get(key) }

// Delete removes a key.
func (db *DB) Delete(key []byte) error { return db.inner.Delete(key) }

// Write commits a batch atomically.
func (db *DB) Write(b *Batch) error { return db.inner.Write(b) }

// NewIterator returns a snapshot scan; callers must Close it.
func (db *DB) NewIterator() (*Iterator, error) { return db.inner.NewIterator() }

// GetSnapshot pins a point-in-time read view. Compactions retain every
// version the snapshot can read until it is Released.
func (db *DB) GetSnapshot() (*Snapshot, error) { return db.inner.GetSnapshot() }

// Flush forces the memtable to disk.
func (db *DB) Flush() error { return db.inner.Flush() }

// Scrub synchronously verifies every live table against its manifest
// record — block checksums, key order, bounds, entry count, whole-file
// digest — quarantining any table that fails, and returns the per-table
// report. Unlike the background scrubber it does not rate-limit or yield
// to compaction I/O.
func (db *DB) Scrub() (ScrubReport, error) { return db.inner.Scrub() }

// Compact synchronously runs one compaction from the given level.
func (db *DB) Compact(level int) error { return db.inner.CompactLevel(level) }

// CompactRange rewrites every table intersecting [begin, end] down the
// tree (nil bounds are open; CompactRange(nil, nil) is a major compaction).
func (db *DB) CompactRange(begin, end []byte) error { return db.inner.CompactRange(begin, end) }

// WaitIdle blocks until all scheduled background work has drained.
func (db *DB) WaitIdle() error { return db.inner.WaitIdle() }

// Stats returns cumulative counters, including the compaction step
// breakdown and bandwidth (the paper's metrics).
func (db *DB) Stats() Stats { return db.inner.Stats() }

// Metrics returns one Stats snapshot flattened to lsm_* names: the
// cumulative counters, plus the gauges sampled at that instant (in-flight
// flushes and compactions per level, claimed bytes, governor pools, the
// active policy). Each name is declared once, on its Stats field.
func (db *DB) Metrics() map[string]int64 { return db.inner.Metrics() }

// Levels returns the table count per level (diagnostics).
func (db *DB) Levels() []int {
	v := db.inner.Version()
	out := make([]int, len(v.Levels))
	for i := range v.Levels {
		out[i] = len(v.Levels[i])
	}
	return out
}

// DeviceStats returns per-simulated-device counters, or nil when the store
// is not simulated.
func (db *DB) DeviceStats() []device.Stats {
	if db.sim == nil {
		return nil
	}
	devs := db.sim.Devices()
	out := make([]device.Stats, len(devs))
	for i, d := range devs {
		out[i] = d.Stats()
	}
	return out
}

// ResetDeviceStats zeroes simulated device counters.
func (db *DB) ResetDeviceStats() {
	if db.sim != nil {
		db.sim.ResetDeviceStats()
	}
}

// Close releases the store. Acknowledged writes survive via WAL replay.
func (db *DB) Close() error { return db.inner.Close() }

// IsNotFound reports whether err is a missing-key error.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }
