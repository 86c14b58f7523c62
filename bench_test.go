package pcplsm

// This file regenerates every figure in the paper's evaluation as Go
// benchmarks, plus the ablations DESIGN.md calls out. Custom metrics carry
// the paper's units:
//
//	MiB/s     — compaction bandwidth (the paper's primary metric)
//	inserts/s — store throughput ("IOPS" in the paper's figures)
//	%read/%compute/%write — the step-breakdown shares of Figures 5/8/9
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute values depend on the host CPU and the simulated device models;
// the shapes (who wins, by what factor, where curves bend) reproduce the
// paper. See EXPERIMENTS.md for the recorded comparison.

import (
	"fmt"
	"sync"
	"testing"

	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/harness"
)

// benchScale keeps each benchmark iteration around a second.
func benchScale() harness.Scale {
	return harness.Scale{
		Name:            "bench",
		TimeScale:       2.0,
		CPUDilation:     2,
		CompactionBytes: 2 << 20,
		Fig10Entries:    []int{40_000},
		Fig12Entries:    20_000,
		MaxDisks:        4,
		MaxWorkers:      4,
	}
}

// isolated runs one isolated compaction per iteration and reports the
// paper's metrics.
func isolated(b *testing.B, cfg harness.IsolatedConfig) core.Stats {
	b.Helper()
	var st core.Stats
	var err error
	for i := 0; i < b.N; i++ {
		st, err = harness.RunIsolated(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(st.InputBytes)
	b.ReportMetric(st.Bandwidth()/(1<<20), "MiB/s")
	return st
}

// reportBreakdown attaches the read/compute/write shares.
func reportBreakdown(b *testing.B, st core.Stats) {
	r, c, w := st.Steps.Breakdown().Fractions()
	b.ReportMetric(r*100, "%read")
	b.ReportMetric(c*100, "%compute")
	b.ReportMetric(w*100, "%write")
}

// scpCfg builds an isolated SCP configuration at bench scale.
func scpCfg(sc harness.Scale, dev string, valueSize int, subtask int64) harness.IsolatedConfig {
	return harness.IsolatedConfig{
		Device:     dev,
		TimeScale:  sc.TimeScale,
		UpperBytes: sc.CompactionBytes,
		ValueSize:  valueSize,
		Engine:     core.Config{Mode: core.ModeSCP, SubtaskSize: subtask, CPUDilation: sc.CPUDilation},
	}
}

// BenchmarkFig5_Breakdown regenerates Figure 5: the SCP step breakdown on
// HDD (I/O-bound) and SSD (CPU-bound).
func BenchmarkFig5_Breakdown(b *testing.B) {
	sc := benchScale()
	for _, dev := range []string{"hdd", "ssd"} {
		b.Run(dev, func(b *testing.B) {
			st := isolated(b, scpCfg(sc, dev, 100, 512<<10))
			reportBreakdown(b, st)
		})
	}
}

// BenchmarkFig8_KVSize regenerates Figure 8: the SCP breakdown versus
// key-value size (sort share shrinks as values grow).
func BenchmarkFig8_KVSize(b *testing.B) {
	sc := benchScale()
	for _, dev := range []string{"hdd", "ssd"} {
		for _, vs := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/v%d", dev, vs), func(b *testing.B) {
				st := isolated(b, scpCfg(sc, dev, vs, 512<<10))
				reportBreakdown(b, st)
			})
		}
	}
}

// BenchmarkFig9_SubtaskSize regenerates Figure 9: the SCP breakdown versus
// sub-task size (write share falls as I/O grows).
func BenchmarkFig9_SubtaskSize(b *testing.B) {
	sc := benchScale()
	for _, dev := range []string{"hdd", "ssd"} {
		for _, sub := range []int64{64 << 10, 512 << 10, 2 << 20} {
			b.Run(fmt.Sprintf("%s/%dKB", dev, sub>>10), func(b *testing.B) {
				st := isolated(b, scpCfg(sc, dev, 100, sub))
				reportBreakdown(b, st)
			})
		}
	}
}

// loadOnce runs one full-store load per iteration and reports IOPS and
// compaction bandwidth.
func loadOnce(b *testing.B, cfg harness.LoadConfig) {
	b.Helper()
	var res harness.LoadResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunLoad(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IOPS, "inserts/s")
	b.ReportMetric(res.CompactionBandwidth/(1<<20), "MiB/s")
}

// BenchmarkFig10_ScpVsPcp regenerates Figure 10: insert throughput and
// compaction bandwidth under SCP vs PCP on HDD and SSD.
func BenchmarkFig10_ScpVsPcp(b *testing.B) {
	sc := benchScale()
	for _, dev := range []string{"hdd", "ssd"} {
		for _, mode := range []core.Mode{core.ModeSCP, core.ModePCP} {
			b.Run(fmt.Sprintf("%s/%v", dev, mode), func(b *testing.B) {
				loadOnce(b, harness.LoadConfig{
					Device:    dev,
					TimeScale: sc.TimeScale,
					Entries:   sc.Fig10Entries[0],
					Engine:    core.Config{Mode: mode, CPUDilation: sc.CPUDilation},
				})
			})
		}
	}
}

// BenchmarkFig11a_SubtaskSweep regenerates Figure 11(a): PCP bandwidth
// versus sub-task size (rises, peaks, falls).
func BenchmarkFig11a_SubtaskSweep(b *testing.B) {
	sc := benchScale()
	for _, sub := range []int64{64 << 10, 256 << 10, 512 << 10, 2 << 20} {
		b.Run(fmt.Sprintf("%dKB", sub>>10), func(b *testing.B) {
			cfg := scpCfg(sc, "ssd", 100, sub)
			cfg.Engine.Mode = core.ModePCP
			isolated(b, cfg)
		})
	}
}

// BenchmarkFig11b_CompactionSweep regenerates Figure 11(b): PCP bandwidth
// versus compaction size at fixed sub-task size (rises until enough
// sub-tasks exist, then saturates).
func BenchmarkFig11b_CompactionSweep(b *testing.B) {
	sc := benchScale()
	for _, mb := range []int64{1, 4, 8} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			cfg := scpCfg(sc, "ssd", 100, 512<<10)
			cfg.UpperBytes = mb << 20
			cfg.Engine.Mode = core.ModePCP
			isolated(b, cfg)
		})
	}
}

// BenchmarkFig12_SPPCP regenerates Figure 12(a–c): S-PPCP bandwidth versus
// disk count (RAID0 HDDs; flattens once CPU-bound).
func BenchmarkFig12_SPPCP(b *testing.B) {
	sc := benchScale()
	for _, disks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("disks%d", disks), func(b *testing.B) {
			isolated(b, harness.IsolatedConfig{
				Device: "hdd", Disks: disks, RAID0: true,
				TimeScale:  sc.TimeScale,
				UpperBytes: sc.CompactionBytes,
				Engine: core.Config{Mode: core.ModePCP, SubtaskSize: 256 << 10,
					IOParallel: disks, CPUDilation: sc.CPUDilation},
			})
		})
	}
}

// BenchmarkFig12_CPPCP regenerates Figure 12(d–f): C-PPCP bandwidth versus
// compute-worker count (flattens once I/O-bound).
func BenchmarkFig12_CPPCP(b *testing.B) {
	sc := benchScale()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			isolated(b, harness.IsolatedConfig{
				Device:     "ssd",
				TimeScale:  sc.TimeScale,
				UpperBytes: sc.CompactionBytes,
				Engine: core.Config{Mode: core.ModePCP, SubtaskSize: 512 << 10,
					ComputeParallel: workers, CPUDilation: sc.CPUDilation},
			})
		})
	}
}

// BenchmarkAblation_DeepPipeline compares the paper's 3-stage design
// against the rejected 5-stage split (§III-B) and against C-PPCP with the
// same total worker count: the deep pipeline's uneven stages leave it
// behind C-PPCP, which is exactly the paper's load-imbalance argument.
func BenchmarkAblation_DeepPipeline(b *testing.B) {
	sc := benchScale()
	cases := map[string]core.Config{
		"pcp3":   {Mode: core.ModePCP, SubtaskSize: 512 << 10},
		"deep5":  {Mode: core.ModeDeepPCP, SubtaskSize: 512 << 10},
		"cppcp3": {Mode: core.ModePCP, SubtaskSize: 512 << 10, ComputeParallel: 3},
	}
	for name, cfg := range cases {
		cfg.CPUDilation = sc.CPUDilation
		cfg := cfg
		b.Run(name, func(b *testing.B) {
			isolated(b, harness.IsolatedConfig{
				Device: "ssd", TimeScale: sc.TimeScale,
				UpperBytes: sc.CompactionBytes, Engine: cfg,
			})
		})
	}
}

// BenchmarkAblation_QueueDepth varies the bounded queue depth between
// pipeline stages.
func BenchmarkAblation_QueueDepth(b *testing.B) {
	sc := benchScale()
	for _, qd := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("depth%d", qd), func(b *testing.B) {
			isolated(b, harness.IsolatedConfig{
				Device: "ssd", TimeScale: sc.TimeScale,
				UpperBytes: sc.CompactionBytes,
				Engine: core.Config{Mode: core.ModePCP, SubtaskSize: 256 << 10,
					QueueDepth: qd, CPUDilation: sc.CPUDilation},
			})
		})
	}
}

// BenchmarkAblation_Codec shows how the block codec moves the pipeline
// between regimes: none (I/O-heavy), snappy (the paper's balance), flate
// (deeply CPU-bound).
func BenchmarkAblation_Codec(b *testing.B) {
	sc := benchScale()
	for _, name := range []string{"none", "snappy", "flate"} {
		b.Run(name, func(b *testing.B) {
			kind, err := compress.ParseKind(name)
			if err != nil {
				b.Fatal(err)
			}
			st := isolated(b, harness.IsolatedConfig{
				Device: "ssd", TimeScale: sc.TimeScale,
				UpperBytes: sc.CompactionBytes,
				Engine: core.Config{Mode: core.ModeSCP, SubtaskSize: 512 << 10,
					Codec: compress.MustByKind(kind), CPUDilation: sc.CPUDilation},
			})
			reportBreakdown(b, st)
		})
	}
}

// BenchmarkParallelWriters measures the group-commit pipeline: N goroutines
// issuing synchronous Puts against an in-memory store with background work
// disabled, so only the commit path (WAL append + optional fsync + memtable
// insert) is on the clock. With SyncWAL on, syncs/commit shows the
// amortization group commit buys: the writers1 rows are the one-writer
// baseline, where every commit pays its own fsync.
func BenchmarkParallelWriters(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		for _, syncWAL := range []bool{false, true} {
			b.Run(fmt.Sprintf("writers%d/sync=%v", writers, syncWAL), func(b *testing.B) {
				db, err := Open(Options{
					MemtableBytes:         256 << 20,
					SyncWrites:            syncWAL,
					DisableAutoCompaction: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				val := make([]byte, 100)
				b.SetBytes(116)
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / writers
				for w := 0; w < writers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						key := make([]byte, 16)
						for i := 0; i < per; i++ {
							copy(key, fmt.Sprintf("w%03d%08d", w, i))
							if err := db.Put(key, val); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				st := db.Stats()
				if st.GroupedWrites > 0 {
					b.ReportMetric(float64(st.WALSyncs)/float64(st.GroupedWrites), "syncs/commit")
					b.ReportMetric(float64(st.GroupedWrites)/float64(st.WriteGroups), "writes/group")
				}
			})
		}
	}
}

// BenchmarkParallelWritersShards adds the memtable-shards dimension to the
// group-commit benchmark: concurrent writers form commit groups whose
// entries hash across shards, so the leader's memtable apply fans out to
// parallel per-shard appliers. shards=1 is the single-skiplist baseline (the
// pre-sharding behavior).
func BenchmarkParallelWritersShards(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("writers%d/shards%d", writers, shards), func(b *testing.B) {
				db, err := Open(Options{
					MemtableBytes:         256 << 20,
					MemtableShards:        shards,
					DisableAutoCompaction: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				val := make([]byte, 100)
				b.SetBytes(116)
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / writers
				for w := 0; w < writers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						key := make([]byte, 16)
						for i := 0; i < per; i++ {
							copy(key, fmt.Sprintf("w%03d%08d", w, i))
							if err := db.Put(key, val); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				st := db.Stats()
				if st.WriteGroups > 0 {
					b.ReportMetric(float64(st.ApplyShardRuns)/float64(st.WriteGroups), "shards/group")
					b.ReportMetric(float64(st.ParallelApplies)/float64(st.WriteGroups), "parallel-share")
				}
			})
		}
	}
}

// BenchmarkPutThroughput measures the raw foreground write path (memtable
// + WAL, no simulated devices).
func BenchmarkPutThroughput(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	key := make([]byte, 16)
	val := make([]byte, 100)
	b.SetBytes(116)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(key, fmt.Sprintf("user%012d", i))
		if err := db.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetHit measures point reads across a multi-level tree.
func BenchmarkGetHit(b *testing.B) {
	db, err := Open(Options{MemtableBytes: 256 << 10, TableBytes: 128 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 20000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%012d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("user%012d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}
