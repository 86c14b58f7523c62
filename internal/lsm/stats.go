package lsm

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pcplsm/internal/core"
)

// Stats aggregates DB activity. All counters are cumulative since Open. It
// is the one declaration of every counter: a field tagged `metric:"name"`
// is exported by DB.Metrics under that name (see metrics below).
type Stats struct {
	// Puts/Deletes/Gets count user operations.
	Puts    int64 `metric:"lsm_puts"`
	Deletes int64 `metric:"lsm_deletes"`
	Gets    int64 `metric:"lsm_gets"`
	// FilterSkips counts table probes that a Bloom filter answered without
	// any block I/O.
	FilterSkips int64 `metric:"lsm_filter_skips"`
	// BlockCacheHits/Misses count block-cache lookups on the read path.
	BlockCacheHits   int64 `metric:"lsm_block_cache_hits"`
	BlockCacheMisses int64 `metric:"lsm_block_cache_misses"`
	// BlockCacheEvictions counts blocks dropped from the cache (capacity
	// pressure plus dead-table eviction).
	BlockCacheEvictions int64 `metric:"lsm_block_cache_evictions"`
	// BlockCachePrewarmed always reads 0: compaction no longer pre-warms
	// the cache. The field stays only while the benchmark still reads it.
	BlockCachePrewarmed int64 `metric:"lsm_block_cache_prewarmed"`
	// BlockCacheBytes/Capacity are the cache's current fill and limit.
	BlockCacheBytes    int64 `metric:"lsm_block_cache_bytes"`
	BlockCacheCapacity int64 `metric:"lsm_block_cache_capacity"`

	// Flushes counts memtable→L0 dumps; FlushBytes their output volume.
	Flushes    int64 `metric:"lsm_flushes"`
	FlushBytes int64
	// FlushWall is the cumulative time spent flushing.
	FlushWall time.Duration

	// Compactions counts background merges.
	Compactions int64 `metric:"lsm_compactions"`
	// TrivialMoves counts picked inputs with no next-level overlap that
	// were installed as metadata-only edits instead of being rewritten
	// through the pipeline; TrivialMoveBytes totals the table bytes those
	// moves spared from rewriting.
	TrivialMoves     int64 `metric:"lsm_trivial_moves"`
	TrivialMoveBytes int64 `metric:"lsm_trivial_move_bytes"`
	// CompactionInputBytes/OutputBytes total the data volumes: the bytes
	// S1 fetched (core.Stats.InputBytes) and the bytes S7 wrote.
	CompactionInputBytes  int64
	CompactionOutputBytes int64
	// CompactionWall is the cumulative compaction time.
	CompactionWall time.Duration
	// CompactionSteps sums the per-step times across all compactions —
	// the data behind the paper's breakdown figures.
	CompactionSteps core.StepTimes
	// PipelinedCompactions counts the compactions that ran under ModePCP
	// (Compactions − PipelinedCompactions ran sequentially).
	PipelinedCompactions int64 `metric:"lsm_compactions_pipelined"`
	// CompactionStageBusy/StageIdle attribute cumulative compaction time to
	// the pipeline stages: busy is time a stage worker spent working, idle
	// is worker lifetime spent waiting on the inter-stage queues (zero for
	// SCP, which has no waiting workers). A stall investigation reads these
	// as "which stage was the choke": the bottleneck stage is busy while
	// the others idle.
	CompactionStageBusy core.Breakdown
	CompactionStageIdle core.Breakdown

	// StallCount/StallTime measure write pauses (full memtable backlog or
	// too many L0 tables).
	StallCount int64         `metric:"lsm_stall_count"`
	StallTime  time.Duration `metric:"lsm_stall_ns"`

	// Commit-pipeline counters. WriteGroups counts WAL records written by
	// the commit path (one per group); GroupedWrites counts the Write calls
	// those groups carried, so GroupedWrites/WriteGroups is the mean group
	// size. WALSyncs counts commit-path fsyncs: with SyncWAL on,
	// WALSyncs/GroupedWrites is the sync amortization (1.0 with one writer
	// per group, → 1/N as grouping kicks in). MaxWriteGroup is the largest group committed.
	WriteGroups   int64 `metric:"lsm_write_groups"`
	GroupedWrites int64 `metric:"lsm_grouped_writes"`
	WALSyncs      int64 `metric:"lsm_wal_syncs"`
	MaxWriteGroup int64 `metric:"lsm_max_write_group"`

	// Memtable gauges (the live memtable at the instant of the snapshot) and
	// apply counters. MemtableShards is the configured shard count;
	// MemtableEntries the live entry count; MemtableMaxShardEntries/
	// MinShardEntries expose hash skew across shards. MemtableArenaReserved
	// is the bytes held by arena chunks and node slabs, MemtableArenaUsed
	// the bytes actually carved out of them — reserved-used is the
	// allocator's current slack. ApplyShardRuns sums the shards touched per
	// committed group (ApplyShardRuns/WriteGroups is the mean apply fan-out)
	// and ParallelApplies counts groups applied by concurrent shard
	// goroutines rather than inline.
	MemtableShards          int64 `metric:"lsm_memtable_shards"`
	MemtableEntries         int64 `metric:"lsm_memtable_entries"`
	MemtableMaxShardEntries int64 `metric:"lsm_memtable_shard_entries_max"`
	MemtableMinShardEntries int64 `metric:"lsm_memtable_shard_entries_min"`
	MemtableArenaReserved   int64 `metric:"lsm_memtable_arena_reserved_bytes"`
	MemtableArenaUsed       int64 `metric:"lsm_memtable_arena_used_bytes"`
	ApplyShardRuns          int64 `metric:"lsm_apply_shard_runs"`
	ParallelApplies         int64 `metric:"lsm_parallel_applies"`

	// Compaction-policy state. ActivePolicy names the policy in effect at
	// the instant of the snapshot; PolicySwitches counts runtime switches
	// applied by the self-tuner (zero when a policy is pinned).
	ActivePolicy   string
	PolicySwitches int64 `metric:"lsm_policy_switches"`

	// Error-policy counters. BackgroundRetries counts transient background
	// failures that were retried; BackgroundErrors counts failures that
	// turned sticky (retries exhausted, WAL/manifest poison);
	// CorruptionsDetected counts checksum/structural failures observed in
	// on-disk data (each detection event, not distinct files).
	BackgroundRetries   int64 `metric:"lsm_background_retries"`
	BackgroundErrors    int64 `metric:"lsm_background_errors"`
	CorruptionsDetected int64 `metric:"lsm_corruptions_detected"`

	// Integrity-subsystem counters. ScrubTablesVerified/ScrubBytesVerified
	// total the tables and physical bytes the scrubber has read back and
	// checked; ScrubCycles counts completed passes over the whole tree;
	// ScrubCorruptions counts tables a scrub found damaged (each was
	// quarantined). QuarantinedTables is the number of tables currently
	// quarantined (a gauge, not cumulative). ParanoidVerifies counts
	// verify-before-install passes over fresh flush/compaction outputs and
	// ParanoidRejections the outputs those passes discarded.
	ScrubTablesVerified int64 `metric:"lsm_scrub_tables_verified"`
	ScrubBytesVerified  int64 `metric:"lsm_scrub_bytes_verified"`
	ScrubCycles         int64 `metric:"lsm_scrub_cycles"`
	ScrubCorruptions    int64 `metric:"lsm_scrub_corruptions"`
	QuarantinedTables   int64 `metric:"lsm_quarantined_tables"`
	ParanoidVerifies    int64 `metric:"lsm_paranoid_verifies"`
	ParanoidRejections  int64 `metric:"lsm_paranoid_rejections"`

	// LastCompaction holds the most recent compaction's full statistics
	// (including its Pipeline block: worker counts, resizes, queue
	// high-water marks).
	LastCompaction core.Stats

	// Pipeline-governor counters and pool gauges. GovernorGrows/Shrinks
	// count adaptive-pilot resizes applied across all compactions.
	// GovernorDenials counts grow attempts the shared pools rejected plus
	// background scrub steps refused an I/O lease (scrubbing yields to
	// compaction I/O) — sustained denials mean background work is
	// contending for the same tokens.
	PipelineComputeTokens int64 `metric:"lsm_pipeline_compute_tokens"`
	PipelineIOTokens      int64 `metric:"lsm_pipeline_io_tokens"`
	PipelineComputeLeased int64 `metric:"lsm_pipeline_compute_leased"`
	PipelineIOLeased      int64 `metric:"lsm_pipeline_io_leased"`
	GovernorGrows         int64 `metric:"lsm_governor_grows"`
	GovernorShrinks       int64 `metric:"lsm_governor_shrinks"`
	GovernorDenials       int64 `metric:"lsm_governor_denials"`

	// Scheduler gauges: a snapshot of the concurrent background work in
	// flight at the instant Stats() was called.
	//
	// FlushesInFlight is 0 or 1 (flushes conflict with each other).
	FlushesInFlight int64 `metric:"lsm_flushes_inflight"`
	// CompactionsInFlight counts compactions currently claimed.
	CompactionsInFlight int64 `metric:"lsm_compactions_inflight"`
	// CompactionsInFlightByLevel breaks CompactionsInFlight down by source
	// level (an entry at L covers the L→L+1 level pair).
	CompactionsInFlightByLevel [NumLevels]int64
	// ClaimedBytes totals the input+overlap table bytes claimed by
	// in-flight compactions.
	ClaimedBytes int64 `metric:"lsm_claimed_bytes"`
	// MaxConcurrentBackground is the high-water mark of simultaneous
	// background units (flushes + compactions) since Open.
	MaxConcurrentBackground int64 `metric:"lsm_max_concurrent_background"`
}

// CompactionBandwidth returns bytes of compaction input processed per
// second of compaction wall time — the paper's headline metric, aggregated.
func (s Stats) CompactionBandwidth() float64 {
	if s.CompactionWall <= 0 {
		return 0
	}
	return float64(s.CompactionInputBytes) / s.CompactionWall.Seconds()
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("puts=%d gets=%d flushes=%d compactions=%d cbw=%.1fMiB/s stall=%v [%v]",
		s.Puts, s.Gets, s.Flushes, s.Compactions,
		s.CompactionBandwidth()/(1<<20), s.StallTime.Round(time.Millisecond),
		s.CompactionSteps.Breakdown())
}

// metrics renders s under its metric names: every tagged field, plus the
// nested values that have no flat field of their own.
func (s Stats) metrics() map[string]int64 {
	m := map[string]int64{}
	v, t := reflect.ValueOf(s), reflect.TypeOf(s)
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("metric"); name != "" {
			m[name] = v.Field(i).Int()
		}
	}
	for l, n := range s.CompactionsInFlightByLevel {
		m[fmt.Sprintf("lsm_compactions_inflight_l%d", l)] = n
	}
	busy, idle := s.CompactionStageBusy, s.CompactionStageIdle
	m["lsm_compaction_stage_busy_read_ns"] = int64(busy.Read)
	m["lsm_compaction_stage_busy_compute_ns"] = int64(busy.Compute)
	m["lsm_compaction_stage_busy_write_ns"] = int64(busy.Write)
	m["lsm_compaction_stage_idle_read_ns"] = int64(idle.Read)
	m["lsm_compaction_stage_idle_compute_ns"] = int64(idle.Compute)
	m["lsm_compaction_stage_idle_write_ns"] = int64(idle.Write)
	m["lsm_compaction_queue_hw_compute"] = int64(s.LastCompaction.Pipeline.ComputeQueueHighWater)
	m["lsm_compaction_queue_hw_write"] = int64(s.LastCompaction.Pipeline.WriteQueueHighWater)
	m["lsm_policy_active"] = policyIndex(s.ActivePolicy)
	return m
}

// statsCollector guards mutation of Stats. The Put/Get/commit counters live
// in atomics so the read/write hot paths never take a lock or allocate;
// every other counter is a plain Stats field changed through update. The
// gauges Stats() samples at read time (scheduler claims, quarantine,
// memtable, cache, governor pools) are not kept here at all.
type statsCollector struct {
	puts        atomic.Int64
	deletes     atomic.Int64
	gets        atomic.Int64
	filterSkips atomic.Int64

	writeGroups   atomic.Int64
	groupedWrites atomic.Int64
	walSyncs      atomic.Int64
	maxWriteGroup atomic.Int64

	applyShardRuns  atomic.Int64
	parallelApplies atomic.Int64

	mu sync.Mutex
	s  Stats
}

func (c *statsCollector) addPutsDeletes(puts, dels int64) {
	if puts != 0 {
		c.puts.Add(puts)
	}
	if dels != 0 {
		c.deletes.Add(dels)
	}
}

func (c *statsCollector) addGet()        { c.gets.Add(1) }
func (c *statsCollector) addFilterSkip() { c.filterSkips.Add(1) }

// addCommit records one committed group of groupSize writers, synced with
// one fsync when synced is set.
func (c *statsCollector) addCommit(groupSize int64, synced bool) {
	c.writeGroups.Add(1)
	c.groupedWrites.Add(groupSize)
	if synced {
		c.walSyncs.Add(1)
	}
	for {
		max := c.maxWriteGroup.Load()
		if groupSize <= max || c.maxWriteGroup.CompareAndSwap(max, groupSize) {
			return
		}
	}
}

// addApply records how one committed group was distributed across memtable
// shards and whether shard appliers ran in parallel.
func (c *statsCollector) addApply(shardsTouched int64, parallel bool) {
	c.applyShardRuns.Add(shardsTouched)
	if parallel {
		c.parallelApplies.Add(1)
	}
}

func (c *statsCollector) snapshot() Stats {
	c.mu.Lock()
	s := c.s
	c.mu.Unlock()
	s.Puts = c.puts.Load()
	s.Deletes = c.deletes.Load()
	s.Gets = c.gets.Load()
	s.FilterSkips = c.filterSkips.Load()
	s.WriteGroups = c.writeGroups.Load()
	s.GroupedWrites = c.groupedWrites.Load()
	s.WALSyncs = c.walSyncs.Load()
	s.MaxWriteGroup = c.maxWriteGroup.Load()
	s.ApplyShardRuns = c.applyShardRuns.Load()
	s.ParallelApplies = c.parallelApplies.Load()
	return s
}

func (c *statsCollector) update(f func(*Stats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.s)
}

// addCompaction folds one compaction's stats into the totals.
func (c *statsCollector) addCompaction(cs core.Stats) {
	c.update(func(s *Stats) {
		s.Compactions++
		s.CompactionInputBytes += cs.InputBytes
		s.CompactionOutputBytes += cs.OutputBytes
		s.CompactionWall += cs.Wall
		for st := core.S1Read; st <= core.S7Write; st++ {
			s.CompactionSteps[st] += cs.Steps.Get(st)
		}
		if cs.Mode == core.ModePCP {
			s.PipelinedCompactions++
		}
		s.CompactionStageBusy.Read += cs.StageBusy.Read
		s.CompactionStageBusy.Compute += cs.StageBusy.Compute
		s.CompactionStageBusy.Write += cs.StageBusy.Write
		s.CompactionStageIdle.Read += cs.Pipeline.StageIdle.Read
		s.CompactionStageIdle.Compute += cs.Pipeline.StageIdle.Compute
		s.CompactionStageIdle.Write += cs.Pipeline.StageIdle.Write
		s.LastCompaction = cs
	})
}
