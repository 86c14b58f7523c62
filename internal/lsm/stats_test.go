package lsm

import (
	"fmt"
	"sort"
	"testing"

	"pcplsm/internal/storage"
)

// TestMetricsGolden pins the exported metric set: a default store exports
// exactly these 67 names, each equal to the Stats field it is declared on.
// A renamed, dropped or added metric fails here first.
func TestMetricsGolden(t *testing.T) {
	db := mustOpen(t, Options{FS: storage.NewMemFS()})
	defer db.Close()
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("golden%04d", i))
		if err := db.Put(k, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Get([]byte(fmt.Sprintf("golden%04d", i)))
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	s := db.Stats()
	got := db.Metrics()
	want := map[string]int64{
		"lsm_puts":                             s.Puts,
		"lsm_deletes":                          s.Deletes,
		"lsm_gets":                             s.Gets,
		"lsm_filter_skips":                     s.FilterSkips,
		"lsm_flushes":                          s.Flushes,
		"lsm_compactions":                      s.Compactions,
		"lsm_stall_count":                      s.StallCount,
		"lsm_stall_ns":                         int64(s.StallTime),
		"lsm_max_concurrent_background":        s.MaxConcurrentBackground,
		"lsm_write_groups":                     s.WriteGroups,
		"lsm_grouped_writes":                   s.GroupedWrites,
		"lsm_wal_syncs":                        s.WALSyncs,
		"lsm_max_write_group":                  s.MaxWriteGroup,
		"lsm_background_retries":               s.BackgroundRetries,
		"lsm_background_errors":                s.BackgroundErrors,
		"lsm_corruptions_detected":             s.CorruptionsDetected,
		"lsm_scrub_tables_verified":            s.ScrubTablesVerified,
		"lsm_scrub_bytes_verified":             s.ScrubBytesVerified,
		"lsm_scrub_cycles":                     s.ScrubCycles,
		"lsm_scrub_corruptions":                s.ScrubCorruptions,
		"lsm_quarantined_tables":               s.QuarantinedTables,
		"lsm_paranoid_verifies":                s.ParanoidVerifies,
		"lsm_paranoid_rejections":              s.ParanoidRejections,
		"lsm_block_cache_hits":                 s.BlockCacheHits,
		"lsm_block_cache_misses":               s.BlockCacheMisses,
		"lsm_block_cache_evictions":            s.BlockCacheEvictions,
		"lsm_block_cache_bytes":                s.BlockCacheBytes,
		"lsm_block_cache_capacity":             s.BlockCacheCapacity,
		"lsm_block_cache_prewarmed":            s.BlockCachePrewarmed,
		"lsm_memtable_shards":                  s.MemtableShards,
		"lsm_memtable_entries":                 s.MemtableEntries,
		"lsm_memtable_shard_entries_max":       s.MemtableMaxShardEntries,
		"lsm_memtable_shard_entries_min":       s.MemtableMinShardEntries,
		"lsm_memtable_arena_reserved_bytes":    s.MemtableArenaReserved,
		"lsm_memtable_arena_used_bytes":        s.MemtableArenaUsed,
		"lsm_apply_shard_runs":                 s.ApplyShardRuns,
		"lsm_parallel_applies":                 s.ParallelApplies,
		"lsm_compactions_pipelined":            s.PipelinedCompactions,
		"lsm_governor_grows":                   s.GovernorGrows,
		"lsm_governor_shrinks":                 s.GovernorShrinks,
		"lsm_governor_denials":                 s.GovernorDenials,
		"lsm_trivial_moves":                    s.TrivialMoves,
		"lsm_trivial_move_bytes":               s.TrivialMoveBytes,
		"lsm_policy_switches":                  s.PolicySwitches,
		"lsm_compaction_stage_busy_read_ns":    int64(s.CompactionStageBusy.Read),
		"lsm_compaction_stage_busy_compute_ns": int64(s.CompactionStageBusy.Compute),
		"lsm_compaction_stage_busy_write_ns":   int64(s.CompactionStageBusy.Write),
		"lsm_compaction_stage_idle_read_ns":    int64(s.CompactionStageIdle.Read),
		"lsm_compaction_stage_idle_compute_ns": int64(s.CompactionStageIdle.Compute),
		"lsm_compaction_stage_idle_write_ns":   int64(s.CompactionStageIdle.Write),
		"lsm_compaction_queue_hw_compute":      int64(s.LastCompaction.Pipeline.ComputeQueueHighWater),
		"lsm_compaction_queue_hw_write":        int64(s.LastCompaction.Pipeline.WriteQueueHighWater),

		// Scheduler and policy gauges.
		"lsm_flushes_inflight":        s.FlushesInFlight,
		"lsm_compactions_inflight":    s.CompactionsInFlight,
		"lsm_compactions_inflight_l0": s.CompactionsInFlightByLevel[0],
		"lsm_compactions_inflight_l1": s.CompactionsInFlightByLevel[1],
		"lsm_compactions_inflight_l2": s.CompactionsInFlightByLevel[2],
		"lsm_compactions_inflight_l3": s.CompactionsInFlightByLevel[3],
		"lsm_compactions_inflight_l4": s.CompactionsInFlightByLevel[4],
		"lsm_compactions_inflight_l5": s.CompactionsInFlightByLevel[5],
		"lsm_compactions_inflight_l6": s.CompactionsInFlightByLevel[6],
		"lsm_claimed_bytes":           s.ClaimedBytes,
		"lsm_policy_active":           policyIndex(s.ActivePolicy),
		"lsm_pipeline_compute_tokens": s.PipelineComputeTokens,
		"lsm_pipeline_io_tokens":      s.PipelineIOTokens,
		"lsm_pipeline_compute_leased": s.PipelineComputeLeased,
		"lsm_pipeline_io_leased":      s.PipelineIOLeased,
	}
	if len(want) != 67 {
		t.Fatalf("golden list holds %d names, want 67", len(want))
	}
	var extra []string
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("Metrics exports names outside the golden list: %v", extra)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s missing from Metrics", name)
		case g != w:
			t.Errorf("%s = %d, want %d (its Stats field)", name, g, w)
		}
	}
	if got["lsm_puts"] != 500 || got["lsm_deletes"] != 100 || got["lsm_flushes"] != 1 {
		t.Fatalf("load not reflected: puts=%d deletes=%d flushes=%d",
			got["lsm_puts"], got["lsm_deletes"], got["lsm_flushes"])
	}
}
