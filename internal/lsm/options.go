package lsm

import (
	"runtime"
	"time"

	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/memtable"
	"pcplsm/internal/storage"
)

// BackgroundRetryPolicy bounds how background workers retry transient
// flush/compaction I/O errors before declaring the store poisoned.
type BackgroundRetryPolicy struct {
	// Max is the number of consecutive failures tolerated before the error
	// turns sticky and the store degrades to read-only. 0 selects the
	// default of 5; a negative value disables retries (first failure is
	// sticky, the pre-retry behaviour).
	Max int
	// BaseDelay is the backoff before the first retry; it doubles per
	// consecutive failure up to 64×, capped at one second. 0 selects the
	// default of 2ms.
	BaseDelay time.Duration
}

// Options configure a DB. The zero value plus an FS is usable; defaults
// mirror the paper's experimental setup (4 MiB memtable, 2 MiB SSTables,
// 4 KiB blocks, snappy).
type Options struct {
	// FS is the backing file system (required): a MemFS, OSFS or SimFS.
	FS storage.FS

	// MemtableSize triggers a flush when C0 exceeds it (default 4 MiB).
	MemtableSize int64
	// MemtableShards partitions the memtable into independent arena-backed
	// skiplists by user-key hash, letting the commit leader apply a write
	// group with parallel per-shard writers and point reads probe a smaller
	// structure. 0 selects the default of 4; 1 restores the single-skiplist
	// layout (observable behavior — contents, scan order, WAL bytes — is
	// identical at any setting). Values are clamped to [1, 64] and rounded
	// up to a power of two.
	MemtableShards int
	// TableSize caps SSTable file size (default 2 MiB).
	TableSize int64
	// BlockSize is the data block size (default 4 KiB).
	BlockSize int
	// RestartInterval for data blocks.
	RestartInterval int
	// Codec compresses data blocks (default Snappy).
	Codec compress.Codec

	// CompactionPolicy pins which compaction runs (as opposed to how it
	// runs — that is Compaction below) by name: "leveling" (LevelDB-style
	// normalized fullness triggers, round-robin file picking),
	// "lazy-leveling" (a tiering posture at the upper levels: fewer,
	// larger merges, lower write amplification), or "coldest-range"
	// (leveling triggers, but file picking steered by the block-cache
	// heat map so compactions churn cold data). Empty selects leveling
	// with the metrics-driven self-tuner enabled: the DB samples its own
	// stall/write-amp/read-mix counters over a sliding window and
	// switches policies as the workload shifts. Naming a policy disables
	// the tuner — the escape hatch to pin behaviour.
	CompactionPolicy string

	// DisableTrivialMove forces every picked compaction through the full
	// read-merge-write pipeline even when its input has no next-level
	// overlap. By default such a table is moved down by a metadata-only
	// version edit — no bytes rewritten, the file keeps its number, and
	// its cached blocks stay valid. Disabling is mainly for benchmarks
	// isolating the effect (the policy comparison's write-amp ablation).
	DisableTrivialMove bool

	// Compaction configures the procedure (mode, sub-task size,
	// compute/IO parallelism). Block/table/codec fields inside it are
	// overridden by the DB-level settings above. The zero-valued Mode is
	// core.ModePCP: live compactions pipeline by default; set core.ModeSCP
	// explicitly for the sequential baseline. ComputeParallel and
	// IOParallel are clamped to [1, 16] (zero values keep core's defaults).
	Compaction core.Config

	// PipelineComputeTokens sizes the engine-wide compute-token pool shared
	// by every pipelined compaction: at most this many compute-stage
	// workers run beyond the per-unit baseline of one, so
	// BackgroundWorkers × ComputeParallel cannot oversubscribe the host.
	// 0 or a negative value selects max(1, GOMAXPROCS−1) — one CPU of
	// foreground headroom.
	PipelineComputeTokens int
	// PipelineIOTokens sizes the matching I/O-token pool (one token per
	// unit of IOParallel — a read+write worker pair). 0 selects 4.
	PipelineIOTokens int

	// L0CompactionTrigger is the L0 table count that schedules a compaction
	// (default 4).
	L0CompactionTrigger int
	// L0StallTrigger is the L0 table count at which writers stall until the
	// backlog drains (default 12) — the paper's "write pauses".
	L0StallTrigger int
	// BaseLevelSize is the size threshold of level 1 (default 8 MiB);
	// deeper levels grow by LevelMultiplier.
	BaseLevelSize int64
	// LevelMultiplier is the per-level growth factor (default 10).
	LevelMultiplier int

	// BloomBitsPerKey sizes the per-table Bloom filters that point reads
	// use to skip tables. 0 selects the default of 10 bits/key; a negative
	// value disables filters.
	BloomBitsPerKey int
	// BlockCacheBytes caps the decompressed-block cache serving point
	// reads. 0 selects the default of 8 MiB; a negative value disables the
	// cache. Positive values are clamped to at least cache.MinShardBytes
	// per shard (1 MiB total for the 16-shard cache) — smaller settings
	// used to round to a per-shard capacity of a few bytes and silently
	// cache nothing. Compaction I/O always bypasses the cache on the read
	// side. On the write side the cache survives compactions: the DB tracks
	// per-key-range read heat and, when a compaction output block covers a
	// hot range, inserts the block (already in memory inside the compaction
	// pipeline) under the new table's identity before the version edit
	// installs. Cold output is never admitted, and at most half the cache's
	// capacity is pre-warmed per compaction, so compaction output cannot
	// flush the read working set.
	BlockCacheBytes int64

	// SyncWAL forces an fsync per commit group. Concurrent writers are
	// merged by a leader into one WAL record (one fsync), and WAL I/O
	// happens outside the DB mutex so reads never queue behind commit I/O.
	// Off by default (matching the paper's insert benchmarks, which are
	// bounded by compaction, not commit latency).
	SyncWAL bool

	// BackgroundWorkers sizes the background scheduler's worker pool
	// (default 2). With two or more workers a memtable flush can overlap
	// in-flight compactions, and compactions on disjoint level pairs run
	// in parallel. 1 restores the strictly serial one-unit-at-a-time
	// behaviour of the original LevelDB-style loop.
	BackgroundWorkers int

	// DisableAutoCompaction stops the background scheduler; compactions
	// then run only via CompactLevel/Flush calls. Used by experiments that
	// need precise control.
	DisableAutoCompaction bool

	// BackgroundRetry bounds the retries of transient background I/O
	// errors. Detected corruption and WAL/manifest-append failures are
	// never retried: they immediately poison the store (reads keep
	// working; writes fail with ErrBackgroundError/ErrCorruption).
	BackgroundRetry BackgroundRetryPolicy

	// ParanoidChecks re-verifies every flush and compaction output before
	// the version edit references it: the finished file is re-read from the
	// device through a verifying reader and its entry count, key order,
	// bounds and whole-file digest are compared against what the write
	// stage produced. A mismatch discards the output and retries the unit
	// (the inputs are still intact), so a pipeline bug, torn write, or
	// lying device is caught before the manifest points at bad data. Off by
	// default: it costs one extra read pass per background unit.
	ParanoidChecks bool

	// ScrubInterval enables the background integrity scrubber: the pause
	// between verifying one table and the next while cycling over live
	// tables (block checksums, key order, bounds, whole-file digest).
	// A table that fails is quarantined (see ErrQuarantined) rather than
	// degrading the whole store. 0 disables background scrubbing (the
	// default — DB.Scrub still runs manual cycles); negative also disables.
	ScrubInterval time.Duration

	// ScrubBytesPerSec rate-limits scrub reads so verification cannot
	// monopolize device bandwidth. 0 selects the default of 8 MiB/s; a
	// negative value removes the limit. Each table additionally holds a
	// governor I/O lease while being verified, so scrub reads compete with
	// compactions under the same token accounting.
	ScrubBytesPerSec int64

	// Logf, when set, receives progress lines (flushes, compactions).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MemtableSize <= 0 {
		o.MemtableSize = 4 << 20
	}
	if o.MemtableShards == 0 {
		o.MemtableShards = 4
	}
	o.MemtableShards = memtable.NormalShards(o.MemtableShards)
	if o.TableSize <= 0 {
		o.TableSize = 2 << 20
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 4 << 10
	}
	if o.Codec == nil {
		o.Codec = compress.MustByKind(compress.Snappy)
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = 4
	}
	if o.L0StallTrigger <= 0 {
		o.L0StallTrigger = 12
	}
	// A stall trigger below the compaction trigger would stall writers on an
	// L0 no policy is yet due to drain: flushes stop, the count never grows,
	// and nothing ever frees the writer (the policies' urgent-L0 rule only
	// guarantees a pick at or before the stall when stall ≥ trigger).
	if o.L0StallTrigger < o.L0CompactionTrigger {
		o.L0StallTrigger = o.L0CompactionTrigger
	}
	if o.BaseLevelSize <= 0 {
		o.BaseLevelSize = 8 << 20
	}
	if o.LevelMultiplier <= 0 {
		o.LevelMultiplier = 10
	}
	if o.BackgroundWorkers <= 0 {
		o.BackgroundWorkers = 2
	}
	switch {
	case o.BackgroundRetry.Max == 0:
		o.BackgroundRetry.Max = 5
	case o.BackgroundRetry.Max < 0:
		o.BackgroundRetry.Max = 0
	}
	if o.BackgroundRetry.BaseDelay <= 0 {
		o.BackgroundRetry.BaseDelay = 2 * time.Millisecond
	}
	if o.ScrubInterval < 0 {
		o.ScrubInterval = 0
	}
	switch {
	case o.ScrubBytesPerSec == 0:
		o.ScrubBytesPerSec = 8 << 20
	case o.ScrubBytesPerSec < 0:
		o.ScrubBytesPerSec = 0
	}
	switch {
	case o.BloomBitsPerKey == 0:
		o.BloomBitsPerKey = 10
	case o.BloomBitsPerKey < 0:
		o.BloomBitsPerKey = 0
	}
	switch {
	case o.BlockCacheBytes == 0:
		o.BlockCacheBytes = 8 << 20
	case o.BlockCacheBytes < 0:
		o.BlockCacheBytes = 0
	}
	// Push DB-level format settings into the compaction config.
	o.Compaction.BlockSize = o.BlockSize
	o.Compaction.RestartInterval = o.RestartInterval
	o.Compaction.Codec = o.Codec
	o.Compaction.TableSize = o.TableSize
	o.Compaction.BloomBitsPerKey = o.BloomBitsPerKey
	// Clamp the pipeline widths to sane ranges. SubtaskSize passes
	// through: core maps zero and negative values to its 512 KiB default.
	o.Compaction.ComputeParallel = clampInt(o.Compaction.ComputeParallel, 0, 16)
	o.Compaction.IOParallel = clampInt(o.Compaction.IOParallel, 0, 16)
	if o.PipelineComputeTokens <= 0 {
		o.PipelineComputeTokens = max(1, runtime.GOMAXPROCS(0)-1)
	}
	if o.PipelineIOTokens == 0 {
		o.PipelineIOTokens = 4
	}
	return o
}

// clampInt bounds v to [lo, hi]. Zero and negative values map to lo, so a
// zero keeps the downstream default and a negative misconfiguration cannot
// smuggle through (core treats <= 0 as "use the default").
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// maxLevelSize returns the size threshold of a level (level >= 1).
func (o *Options) maxLevelSize(level int) int64 {
	s := o.BaseLevelSize
	for l := 1; l < level; l++ {
		s *= int64(o.LevelMultiplier)
	}
	return s
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}
