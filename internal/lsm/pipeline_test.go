package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"pcplsm/internal/core"
	"pcplsm/internal/storage"
)

// pipelineWorkload writes a deterministic key/value sequence with explicit
// flush points, then drains L0 and L1 through manual compactions. Returns
// every on-disk table's bytes tagged by level, sorted by (level, smallest
// key) — table *numbering* may permute under parallel pipeline writers,
// table *contents* and boundaries may not.
func pipelineWorkload(t *testing.T, opts Options) []levelTable {
	t.Helper()
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	for batch := 0; batch < 6; batch++ {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key%05d", (batch*7+i*13)%2500)
			if batch > 0 && i%23 == 0 {
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			v := fmt.Sprintf("value-%02d-%04d", batch, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	if len(db.Version().Levels[1]) > 0 {
		if err := db.CompactLevel(1); err != nil {
			t.Fatal(err)
		}
	}

	v := db.Version()
	var out []levelTable
	for level, tables := range v.Levels {
		for _, tm := range tables {
			data, err := storage.ReadAll(opts.FS, TableFileName(tm.Num))
			if err != nil {
				t.Fatalf("read L%d table %d: %v", level, tm.Num, err)
			}
			out = append(out, levelTable{
				level:    level,
				smallest: string(tm.Smallest),
				data:     data,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].level != out[j].level {
			return out[i].level < out[j].level
		}
		return out[i].smallest < out[j].smallest
	})
	return out
}

type levelTable struct {
	level    int
	smallest string
	data     []byte
}

// TestPCPOutputsMatchSCPByteForByte is the live-path equivalence check: the
// same workload driven through a ModeSCP DB and a ModePCP DB (parallel
// stage workers, adaptive pilot enabled) must leave bit-for-bit identical
// tables at every level.
func TestPCPOutputsMatchSCPByteForByte(t *testing.T) {
	scpOpts := smallOpts(storage.NewMemFS())
	scpOpts.Compaction.Mode = core.ModeSCP
	ref := pipelineWorkload(t, scpOpts)

	pcpOpts := smallOpts(storage.NewMemFS())
	pcpOpts.Compaction.Mode = core.ModePCP
	pcpOpts.Compaction.ComputeParallel = 3
	pcpOpts.Compaction.IOParallel = 2
	pcpOpts.PipelineComputeTokens = 8
	pcpOpts.PipelineIOTokens = 8
	got := pipelineWorkload(t, pcpOpts)

	if len(got) == 0 {
		t.Fatal("workload produced no tables")
	}
	if len(got) != len(ref) {
		t.Fatalf("PCP produced %d tables, SCP %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].level != ref[i].level || got[i].smallest != ref[i].smallest {
			t.Fatalf("table %d: PCP (L%d, %q) vs SCP (L%d, %q)",
				i, got[i].level, got[i].smallest, ref[i].level, ref[i].smallest)
		}
		if !bytes.Equal(got[i].data, ref[i].data) {
			t.Fatalf("table %d (L%d, smallest %q): PCP bytes differ from SCP",
				i, got[i].level, got[i].smallest)
		}
	}
}

// TestGovernorGaugesAndStats drives background compactions under the default
// (PCP) mode and checks the observability surface: pipelined-compaction
// counts, stage busy clocks, token pool gauges and governor counters in both
// Stats() and Metrics().
func TestGovernorGaugesAndStats(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.MemtableSize = 8 << 10
	opts.PipelineComputeTokens = 3
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key%06d", (i*37)%2000)
		v := fmt.Sprintf("value-%08d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	s := db.Stats()
	if s.Compactions == 0 {
		t.Fatal("workload too small: no compactions ran")
	}
	if s.PipelinedCompactions != s.Compactions {
		t.Fatalf("PipelinedCompactions = %d, want %d (every compaction is PCP by default)",
			s.PipelinedCompactions, s.Compactions)
	}
	if s.PipelineComputeTokens != 3 || s.PipelineIOTokens != 4 {
		t.Fatalf("token pools = %d/%d, want 3/4", s.PipelineComputeTokens, s.PipelineIOTokens)
	}
	if s.PipelineComputeLeased != 0 || s.PipelineIOLeased != 0 {
		t.Fatalf("leased = %d/%d after WaitIdle, want 0/0",
			s.PipelineComputeLeased, s.PipelineIOLeased)
	}
	if s.CompactionStageBusy.Compute <= 0 || s.CompactionStageBusy.Write <= 0 {
		t.Fatalf("stage busy clocks not populated: %+v", s.CompactionStageBusy)
	}
	if s.CompactionStageIdle.Read < 0 || s.CompactionStageIdle.Compute < 0 ||
		s.CompactionStageIdle.Write < 0 {
		t.Fatalf("negative stage idle: %+v", s.CompactionStageIdle)
	}
	lp := s.LastCompaction.Pipeline
	if lp.InitialComputeWorkers < 1 || lp.InitialIOWorkers < 1 {
		t.Fatalf("LastCompaction pipeline widths = %d/%d, want >= 1/1",
			lp.InitialComputeWorkers, lp.InitialIOWorkers)
	}

	snap := db.Metrics()
	for gauge, want := range map[string]int64{
		"lsm_pipeline_compute_tokens": 3,
		"lsm_pipeline_io_tokens":      4,
		"lsm_pipeline_compute_leased": 0,
		"lsm_pipeline_io_leased":      0,
		"lsm_compactions_pipelined":   s.PipelinedCompactions,
		"lsm_governor_grows":          s.GovernorGrows,
		"lsm_governor_shrinks":        s.GovernorShrinks,
		"lsm_governor_denials":        s.GovernorDenials,
	} {
		got, ok := snap[gauge]
		if !ok {
			t.Fatalf("gauge %s missing from Metrics snapshot", gauge)
		}
		if got != want {
			t.Fatalf("gauge %s = %d, want %d", gauge, got, want)
		}
	}
	for _, gauge := range []string{
		"lsm_compaction_stage_busy_read_ns",
		"lsm_compaction_stage_busy_compute_ns",
		"lsm_compaction_stage_busy_write_ns",
		"lsm_compaction_stage_idle_read_ns",
		"lsm_compaction_stage_idle_compute_ns",
		"lsm_compaction_stage_idle_write_ns",
		"lsm_compaction_queue_hw_compute",
		"lsm_compaction_queue_hw_write",
	} {
		if _, ok := snap[gauge]; !ok {
			t.Fatalf("gauge %s missing from Metrics snapshot", gauge)
		}
	}
	if snap["lsm_compaction_stage_busy_compute_ns"] <= 0 {
		t.Fatal("lsm_compaction_stage_busy_compute_ns not positive")
	}
}

// TestCompactionOptionsClamped covers Options validation: absurd pipeline
// widths are clamped and the zero Mode is PCP.
func TestCompactionOptionsClamped(t *testing.T) {
	o := Options{
		FS: storage.NewMemFS(),
		Compaction: core.Config{
			ComputeParallel: -5,
			IOParallel:      99,
		},
	}
	d := o.withDefaults()
	if d.Compaction.Mode != core.ModePCP {
		t.Fatalf("Mode = %v, want pcp (the zero value)", d.Compaction.Mode)
	}
	if d.Compaction.ComputeParallel != 0 {
		t.Fatalf("ComputeParallel = %d, want 0 (negative maps to core default)",
			d.Compaction.ComputeParallel)
	}
	if d.Compaction.IOParallel != 16 {
		t.Fatalf("IOParallel = %d, want clamp to 16", d.Compaction.IOParallel)
	}
	if d.PipelineComputeTokens < 1 {
		t.Fatalf("PipelineComputeTokens default = %d, want >= 1", d.PipelineComputeTokens)
	}
	if d.PipelineIOTokens != 4 {
		t.Fatalf("PipelineIOTokens default = %d, want 4", d.PipelineIOTokens)
	}
	// Negative compute tokens select the default pool like 0 does.
	o.PipelineComputeTokens = -1
	if d2 := o.withDefaults(); d2.PipelineComputeTokens != d.PipelineComputeTokens {
		t.Fatalf("PipelineComputeTokens = %d, want default %d", d2.PipelineComputeTokens, d.PipelineComputeTokens)
	}
}

// TestGovernorLeasePools exercises the token pool accounting directly:
// baseline grants always succeed (even overcommitted), extras are gated on
// headroom, releases return everything, and the pool snapshot Stats() reads
// tracks it all.
func TestGovernorLeasePools(t *testing.T) {
	g := newPipelineGovernor(2, 2)

	l1 := g.acquire(3, 3)
	if c, io := l1.widths(); c != 2 || io != 2 {
		t.Fatalf("lease1 widths = %d/%d, want 2/2 (pool caps extras)", c, io)
	}
	// Pool exhausted: a second lease still gets its baseline — overcommit is
	// visible as leased > total.
	l2 := g.acquire(2, 2)
	if c, io := l2.widths(); c != 1 || io != 1 {
		t.Fatalf("lease2 widths = %d/%d, want baseline 1/1", c, io)
	}
	if ct, it, cl, il := g.snapshot(); ct != 2 || it != 2 || cl != 3 || il != 3 {
		t.Fatalf("pool = total %d/%d leased %d/%d, want total 2/2 leased 3/3 (baseline overcommit)",
			ct, it, cl, il)
	}
	if l2.tryGrowCompute() {
		t.Fatal("tryGrowCompute succeeded on an exhausted pool")
	}
	if _, _, cl, _ := g.snapshot(); cl != 3 {
		t.Fatalf("denied grow changed the pool: compute leased %d, want 3", cl)
	}

	l1.release()
	if _, _, cl, il := g.snapshot(); cl != 1 || il != 1 {
		t.Fatalf("after release leased = %d/%d, want 1/1", cl, il)
	}
	if !l2.tryGrowCompute() {
		t.Fatal("tryGrowCompute failed with headroom available")
	}
	l2.shrinkCompute()
	l2.shrinkCompute() // baseline: no-op
	if c, _ := l2.widths(); c != 1 {
		t.Fatalf("shrink below baseline: compute = %d, want 1", c)
	}
	l2.release()
	l2.release() // idempotent
	if _, _, cl, il := g.snapshot(); cl != 0 || il != 0 {
		t.Fatalf("leaked tokens: leased = %d/%d after all releases", cl, il)
	}
}

// TestAdaptivePilotClassification feeds the pilot synthetic telemetry and
// checks each classification branch: compute-bound grows compute, I/O-bound
// grows I/O, overprovisioned compute shrinks, exhausted pools count denials,
// I/O width never shrinks, and the hysteresis window suppresses
// back-to-back actions.
func TestAdaptivePilotClassification(t *testing.T) {
	g := newPipelineGovernor(4, 4)
	lease := g.acquire(1, 1)
	var sc statsCollector
	pilot := &adaptivePilot{lease: lease, stats: &sc}

	tel := func(done, cw, iow, compQ, writeQ int, busy core.Breakdown) core.PipelineTelemetry {
		return core.PipelineTelemetry{
			Subtasks: 100, SubtasksDone: done,
			ComputeWorkers: cw, IOWorkers: iow,
			ComputeQueue: compQ, ComputeQueueCap: 4,
			WriteQueue: writeQ, WriteQueueCap: 4,
			StageBusy: busy,
		}
	}

	// Inside the warm-up window: no action even with a full queue.
	r := pilot.Adjust(tel(1, 1, 1, 4, 0, core.Breakdown{}))
	if r.Compute != 1 || r.IO != 1 {
		t.Fatalf("pilot acted during warm-up: %+v", r)
	}

	// Full compute queue, idle write queue: compute-bound, grow compute.
	r = pilot.Adjust(tel(2, 1, 1, 4, 0, core.Breakdown{}))
	if r.Compute != 2 || r.IO != 1 {
		t.Fatalf("compute-bound verdict = %+v, want compute 2", r)
	}
	// Hysteresis: the very next sub-task must not trigger another action.
	r = pilot.Adjust(tel(3, 2, 1, 4, 0, core.Breakdown{}))
	if r.Compute != 2 {
		t.Fatalf("pilot re-acted within hysteresis window: %+v", r)
	}

	// Full write queue: I/O-bound, grow I/O.
	r = pilot.Adjust(tel(5, 2, 1, 0, 4, core.Breakdown{}))
	if r.IO != 2 {
		t.Fatalf("write-bound verdict = %+v, want io 2", r)
	}

	// Empty compute queue, I/O busy dominates: compute overprovisioned.
	slow := core.Breakdown{Read: 3 * time.Millisecond, Compute: time.Millisecond,
		Write: 5 * time.Millisecond}
	r = pilot.Adjust(tel(8, 2, 2, 0, 1, slow))
	if r.Compute != 1 {
		t.Fatalf("shrink verdict = %+v, want compute 1", r)
	}

	s := sc.snapshot()
	if s.GovernorGrows != 2 || s.GovernorShrinks != 1 {
		t.Fatalf("grows/shrinks = %d/%d, want 2/1", s.GovernorGrows, s.GovernorShrinks)
	}
	// The pilot's two grows and one shrink moved the pool by one token each
	// way: compute 1+1−1, I/O 1+1.
	if _, _, cl, il := g.snapshot(); cl != 1 || il != 2 {
		t.Fatalf("pool leased = %d/%d after the pilot's resizes, want 1/2", cl, il)
	}
	lease.release()

	// Exhausted pool: a grow attempt is denied and counted.
	g2 := newPipelineGovernor(1, 1)
	lease2 := g2.acquire(1, 1)
	var sc2 statsCollector
	pilot2 := &adaptivePilot{lease: lease2, stats: &sc2}
	r = pilot2.Adjust(tel(2, 1, 1, 4, 0, core.Breakdown{}))
	if r.Compute != 1 {
		t.Fatalf("denied grow changed the verdict: %+v", r)
	}
	if s2 := sc2.snapshot(); s2.GovernorDenials != 1 {
		t.Fatalf("GovernorDenials = %d, want 1", s2.GovernorDenials)
	}
	lease2.release()

	// Full compute queue, empty write queue, two I/O workers: compute-bound.
	// The pilot grows compute while the pool allows and then counts a
	// denial; it never hands I/O width back.
	g3 := newPipelineGovernor(2, 2)
	lease3 := g3.acquire(1, 2)
	var sc3 statsCollector
	pilot3 := &adaptivePilot{lease: lease3, stats: &sc3}
	for i, cw := range []int{1, 2} {
		r = pilot3.Adjust(tel(2*(i+1), cw, 2, 4, 0, core.Breakdown{}))
		if r.Compute != 2 || r.IO != 2 {
			t.Fatalf("step %d: verdict = %+v, want compute 2, io 2", i, r)
		}
	}
	s3 := sc3.snapshot()
	if s3.GovernorGrows != 1 || s3.GovernorDenials != 1 || s3.GovernorShrinks != 0 {
		t.Fatalf("grows/denials/shrinks = %d/%d/%d, want 1/1/0",
			s3.GovernorGrows, s3.GovernorDenials, s3.GovernorShrinks)
	}
	if c, io := lease3.widths(); c != 2 || io != 2 {
		t.Fatalf("lease widths = %d/%d, want 2/2", c, io)
	}
	lease3.release()
}
