package harness

import (
	"fmt"

	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/model"
)

// pct renders a fraction as a percentage cell.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// mibs renders a bandwidth cell.
func mibs(bytesPerSec float64) string { return fmt.Sprintf("%.1f MiB/s", bytesPerSec/(1<<20)) }

// stepRow renders the per-step breakdown of one SCP run.
func stepRow(st core.Stats) []string {
	total := float64(st.Steps.Total())
	cell := func(s core.Step) string {
		if total == 0 {
			return "0%"
		}
		return pct(float64(st.Steps.Get(s)) / total)
	}
	return []string{
		cell(core.S1Read), cell(core.S2Checksum), cell(core.S3Decompress),
		cell(core.S4Sort), cell(core.S5Compress), cell(core.S6ReChecksum),
		cell(core.S7Write),
	}
}

// scpBreakdown runs one isolated SCP compaction and returns its stats.
func scpBreakdown(sc Scale, dev string, valueSize int, subtask int64) (core.Stats, error) {
	return RunIsolated(IsolatedConfig{
		Device:     dev,
		TimeScale:  sc.TimeScale,
		UpperBytes: sc.CompactionBytes,
		ValueSize:  valueSize,
		Engine:     sc.engine(core.Config{Mode: core.ModeSCP, SubtaskSize: subtask}),
	})
}

// Fig5 reproduces Figure 5: the execution-time breakdown of the Sequential
// Compaction Procedure into read / compute / write on HDD and on SSD.
//
// Paper shape: on HDD, read > 40% and read+write > 60% (I/O-bound); on
// SSD, the computation steps take > 60% and write costs more than read
// (CPU-bound, write-after-erase).
func Fig5(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 5: SCP execution-time breakdown (read/compute/write)",
		Columns: []string{"device", "read", "compute", "write", "regime"},
	}
	for _, dev := range []string{"hdd", "ssd"} {
		st, err := scpBreakdown(sc, dev, defaultValueSize, 512<<10)
		if err != nil {
			return nil, err
		}
		b := st.Steps.Breakdown()
		r, c, w := b.Fractions()
		regime := model.Classify(stepTimesFrom(st))
		t.AddRow(dev, pct(r), pct(c), pct(w), regime.String())
	}
	t.Note("paper: HDD read>40%%, HDD I/O>60%% (I/O-bound); SSD compute>60%%, SSD write>read (CPU-bound)")
	return t, nil
}

// stepTimesFrom converts measured core stats into the model's step vector.
func stepTimesFrom(st core.Stats) model.StepTimes {
	return model.StepTimes{
		S1: st.Steps.Get(core.S1Read),
		S2: st.Steps.Get(core.S2Checksum),
		S3: st.Steps.Get(core.S3Decompress),
		S4: st.Steps.Get(core.S4Sort),
		S5: st.Steps.Get(core.S5Compress),
		S6: st.Steps.Get(core.S6ReChecksum),
		S7: st.Steps.Get(core.S7Write),
	}
}

// Fig8 reproduces Figure 8: the SCP step breakdown for key-value sizes
// from 64B to 1024B, on HDD and SSD.
//
// Paper shape: as the value size grows, step sort's share shrinks (fewer
// entries per byte); crc/re-crc stay under 5%; decomp is the cheapest
// computation step; comp is (almost) the costliest.
func Fig8(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 8: SCP step breakdown vs key-value size",
		Columns: []string{"device", "vsize", "read", "crc", "decomp", "sort", "comp", "re-crc", "write"},
	}
	for _, dev := range []string{"hdd", "ssd"} {
		for _, vs := range []int{64, 128, 256, 512, 1024} {
			st, err := scpBreakdown(sc, dev, vs, 512<<10)
			if err != nil {
				return nil, err
			}
			row := append([]string{dev, fmt.Sprintf("%dB", vs)}, stepRow(st)...)
			t.AddRow(row...)
		}
	}
	t.Note("paper: sort share decreases with value size; crc+re-crc <5%% each; comp is the costliest compute step")
	return t, nil
}

// Fig9 reproduces Figure 9: the SCP step breakdown for sub-task sizes from
// 64KB to 4MB, on HDD and SSD.
//
// Paper shape: the write share decreases as the sub-task (= I/O) size
// grows, because large I/O exploits SSD internal parallelism and improves
// HDD bandwidth.
func Fig9(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 9: SCP step breakdown vs sub-task size",
		Columns: []string{"device", "subtask", "read", "crc", "decomp", "sort", "comp", "re-crc", "write"},
	}
	for _, dev := range []string{"hdd", "ssd"} {
		for _, sz := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
			st, err := scpBreakdown(sc, dev, defaultValueSize, sz)
			if err != nil {
				return nil, err
			}
			row := append([]string{dev, fmt.Sprintf("%dKB", sz>>10)}, stepRow(st)...)
			t.AddRow(row...)
		}
	}
	t.Note("paper: write time decreases as sub-task size increases (larger I/O)")
	return t, nil
}

// Fig10 reproduces Figure 10: insert throughput (IOPS), compaction
// bandwidth, and PCP-over-SCP speedups on HDD and SSD as the working set
// grows.
//
// Paper shape: PCP improves IOPS by ≥25% on HDD and ≥45% on SSD, and
// compaction bandwidth by ≥45% (HDD) / ≥65% (SSD); throughput decreases
// with working-set size while compaction bandwidth stays roughly flat on
// SSD and sags slightly on HDD.
func Fig10(sc Scale) (*Table, error) {
	t := &Table{
		Title: "Figure 10: SCP vs PCP — IOPS, compaction bandwidth, speedup",
		Columns: []string{"device", "entries",
			"scp IOPS", "pcp IOPS", "IOPS speedup",
			"scp cbw", "pcp cbw", "cbw speedup"},
	}
	for _, dev := range []string{"hdd", "ssd"} {
		for _, n := range sc.Fig10Entries {
			scp, err := RunLoad(LoadConfig{Device: dev, TimeScale: sc.TimeScale, Entries: n,
				Engine: sc.engine(core.Config{Mode: core.ModeSCP})})
			if err != nil {
				return nil, err
			}
			pcp, err := RunLoad(LoadConfig{Device: dev, TimeScale: sc.TimeScale, Entries: n,
				Engine: sc.engine(core.Config{Mode: core.ModePCP})})
			if err != nil {
				return nil, err
			}
			t.AddRow(dev, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.0f", scp.IOPS), fmt.Sprintf("%.0f", pcp.IOPS),
				fmt.Sprintf("%.2fx", pcp.IOPS/scp.IOPS),
				mibs(scp.CompactionBandwidth), mibs(pcp.CompactionBandwidth),
				fmt.Sprintf("%.2fx", pcp.CompactionBandwidth/scp.CompactionBandwidth))
		}
	}
	t.Note("paper: PCP ≥ +25%% IOPS on HDD, ≥ +45%% on SSD; ≥ +45%% cbw on HDD, ≥ +65%% on SSD")
	return t, nil
}

// Fig11 reproduces Figure 11: compaction bandwidth of SCP vs PCP (a) as
// the sub-task size sweeps 64KB→4MB at fixed compaction size, and (b) as
// the compaction size sweeps with 1MB sub-tasks.
//
// Paper shape: (a) SCP rises monotonically with sub-task size; PCP rises
// then falls (too few sub-tasks starve the pipeline), peaking near 512KB.
// (b) SCP is flat in compaction size; PCP keeps rising until the sub-task
// count is ~6, then saturates.
func Fig11(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 11(a): compaction bandwidth vs sub-task size (SSD)",
		Columns: []string{"subtask", "scp cbw", "pcp cbw", "speedup", "subtasks"},
	}
	for _, sz := range []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		scp, err := RunIsolated(IsolatedConfig{Device: "ssd", TimeScale: sc.TimeScale,
			UpperBytes: sc.CompactionBytes,
			Engine:     sc.engine(core.Config{Mode: core.ModeSCP, SubtaskSize: sz})})
		if err != nil {
			return nil, err
		}
		pcp, err := RunIsolated(IsolatedConfig{Device: "ssd", TimeScale: sc.TimeScale,
			UpperBytes: sc.CompactionBytes,
			Engine:     sc.engine(core.Config{Mode: core.ModePCP, SubtaskSize: sz})})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dKB", sz>>10),
			mibs(scp.Bandwidth()), mibs(pcp.Bandwidth()),
			fmt.Sprintf("%.2fx", pcp.Bandwidth()/scp.Bandwidth()),
			fmt.Sprintf("%d", pcp.Subtasks))
	}
	t.Note("paper: PCP peaks near 512KB sub-tasks; SCP rises with I/O size")
	return t, nil
}

// Fig11b is Figure 11(b): bandwidth vs compaction size with 1MB sub-tasks.
func Fig11b(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 11(b): compaction bandwidth vs compaction size (SSD, 1MB sub-tasks)",
		Columns: []string{"upper input", "scp cbw", "pcp cbw", "speedup", "subtasks"},
	}
	for _, mb := range []int64{1, 2, 4, 6, 8, 10} {
		upper := mb << 20
		scp, err := RunIsolated(IsolatedConfig{Device: "ssd", TimeScale: sc.TimeScale,
			UpperBytes: upper,
			Engine:     sc.engine(core.Config{Mode: core.ModeSCP, SubtaskSize: 1 << 20})})
		if err != nil {
			return nil, err
		}
		pcp, err := RunIsolated(IsolatedConfig{Device: "ssd", TimeScale: sc.TimeScale,
			UpperBytes: upper,
			Engine:     sc.engine(core.Config{Mode: core.ModePCP, SubtaskSize: 1 << 20})})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dMB", mb),
			mibs(scp.Bandwidth()), mibs(pcp.Bandwidth()),
			fmt.Sprintf("%.2fx", pcp.Bandwidth()/scp.Bandwidth()),
			fmt.Sprintf("%d", pcp.Subtasks))
	}
	t.Note("paper: SCP flat; PCP rises until ~6 sub-tasks, then saturates")
	return t, nil
}

// Fig12SPPCP reproduces Figure 12(a–c): S-PPCP throughput, compaction
// bandwidth and speedup as the HDD count grows (RAID0).
//
// Paper shape: throughput/bandwidth rise with disk count and flatten once
// the pipeline becomes CPU-bound (paper: at 5 disks).
func Fig12SPPCP(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 12(a-c): S-PPCP vs HDD count (RAID0)",
		Columns: []string{"disks", "IOPS", "cbw", "IOPS speedup", "cbw speedup"},
	}
	var base LoadResult
	for k := 1; k <= sc.MaxDisks; k++ {
		res, err := RunLoad(LoadConfig{
			Device: "hdd", Disks: k, RAID0: true, TimeScale: sc.TimeScale,
			Entries: sc.Fig12Entries,
			Engine:  sc.engine(core.Config{Mode: core.ModePCP, IOParallel: k}),
		})
		if err != nil {
			return nil, err
		}
		if k == 1 {
			base = res
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", res.IOPS), mibs(res.CompactionBandwidth),
			fmt.Sprintf("%.2fx", res.IOPS/base.IOPS),
			fmt.Sprintf("%.2fx", res.CompactionBandwidth/base.CompactionBandwidth))
	}
	t.Note("paper: gains flatten when the pipeline turns CPU-bound (~5 disks on their testbed)")
	return t, nil
}

// Fig12CPPCP reproduces Figure 12(d–f): C-PPCP throughput, compaction
// bandwidth and speedup as compute workers grow on SSD.
//
// Paper shape: one extra compute thread helps; past saturation the
// pipeline is I/O-bound and extra threads stop helping (their testbed even
// degraded slightly from thread overhead).
func Fig12CPPCP(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 12(d-f): C-PPCP vs compute-worker count (SSD)",
		Columns: []string{"workers", "IOPS", "cbw", "IOPS speedup", "cbw speedup"},
	}
	var base LoadResult
	for k := 1; k <= sc.MaxWorkers; k++ {
		res, err := RunLoad(LoadConfig{
			Device: "ssd", TimeScale: sc.TimeScale,
			Entries: sc.Fig12Entries,
			Engine:  sc.engine(core.Config{Mode: core.ModePCP, ComputeParallel: k}),
		})
		if err != nil {
			return nil, err
		}
		if k == 1 {
			base = res
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", res.IOPS), mibs(res.CompactionBandwidth),
			fmt.Sprintf("%.2fx", res.IOPS/base.IOPS),
			fmt.Sprintf("%.2fx", res.CompactionBandwidth/base.CompactionBandwidth))
	}
	t.Note("paper: gains stop once the pipeline becomes I/O-bound")
	return t, nil
}

// codecKinds are the FigCodec rows, cheapest compute first.
var codecKinds = []compress.Kind{compress.None, compress.Snappy, compress.Flate}

// FigCodec is the codec ablation: the SCP read/compute/write breakdown and
// bandwidth of one isolated SSD compaction per block codec. The codec moves
// the pipeline between regimes: none leaves little compute (I/O-heavy),
// snappy is the paper's balance, flate is deeply CPU-bound.
func FigCodec(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Codec ablation: SCP breakdown and bandwidth vs block codec (SSD)",
		Columns: []string{"codec", "read", "compute", "write", "cbw"},
	}
	for _, kind := range codecKinds {
		st, err := codecRun(sc, kind)
		if err != nil {
			return nil, err
		}
		r, c, w := st.Steps.Breakdown().Fractions()
		t.AddRow(kind.String(), pct(r), pct(c), pct(w), mibs(st.Bandwidth()))
	}
	t.Note("compute share rises none < snappy < flate; bandwidth falls as compute grows")
	return t, nil
}

// codecRun runs one FigCodec row: an isolated SCP compaction on SSD whose
// inputs and outputs use the given codec.
func codecRun(sc Scale, kind compress.Kind) (core.Stats, error) {
	return RunIsolated(IsolatedConfig{
		Device:     "ssd",
		TimeScale:  sc.TimeScale,
		UpperBytes: sc.CompactionBytes,
		Engine: sc.engine(core.Config{Mode: core.ModeSCP, SubtaskSize: 512 << 10,
			Codec: compress.MustByKind(kind)}),
	})
}

// FigModel validates Equations 1–7: it profiles SCP per-step times on each
// device, feeds them to the analytical model, and compares the predicted
// PCP bandwidth/speedup against a measured PCP run.
func FigModel(sc Scale) (*Table, error) {
	t := &Table{
		Title: "Equations 1-7: analytical model vs measurement",
		Columns: []string{"device", "regime", "B_scp meas", "B_pcp pred", "B_pcp meas",
			"speedup pred", "speedup meas", "sat disks", "sat workers"},
	}
	for _, dev := range []string{"hdd", "ssd"} {
		scp, err := scpBreakdown(sc, dev, defaultValueSize, 512<<10)
		if err != nil {
			return nil, err
		}
		steps := stepTimesFrom(scp)
		// Normalize per-sub-task (the model is per-unit; ratios cancel).
		rep := model.Analyze(scp.InputBytes, steps)

		pcp, err := RunIsolated(IsolatedConfig{Device: dev, TimeScale: sc.TimeScale,
			UpperBytes: sc.CompactionBytes,
			Engine:     sc.engine(core.Config{Mode: core.ModePCP, SubtaskSize: 512 << 10})})
		if err != nil {
			return nil, err
		}
		measured := pcp.Bandwidth() / scp.Bandwidth()
		t.AddRow(dev, rep.Regime.String(),
			mibs(scp.Bandwidth()), mibs(rep.Bpcp), mibs(pcp.Bandwidth()),
			fmt.Sprintf("%.2fx", rep.PcpSpeedup), fmt.Sprintf("%.2fx", measured),
			fmt.Sprintf("%d", rep.SatDevices), fmt.Sprintf("%d", rep.SatWorkers))
	}
	t.Note("paper: practical speedup ≈ ideal −10%% (pipeline fill/drain overhead)")
	return t, nil
}
