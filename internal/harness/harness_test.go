package harness

import (
	"bytes"
	"strings"
	"testing"

	"pcplsm/internal/core"
	"pcplsm/internal/model"
)

// testScale is a miniature Quick: small enough for unit tests, large enough
// that the paper's shape properties are measurable. Margins in assertions
// are generous because each experiment is a single run.
func testScale() Scale {
	return Scale{
		Name:            "test",
		TimeScale:       4.0,
		CPUDilation:     4,
		CompactionBytes: 2 << 20,
		Fig10Entries:    []int{20_000},
		Fig12Entries:    20_000,
		MaxDisks:        3,
		MaxWorkers:      3,
	}
}

// skipUnderRace skips timing-sensitive shape tests when instrumentation
// (the race detector or coverage counters) distorts CPU costs.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("shape assertions measure CPU/I-O ratios; invalid under -race")
	}
	if testing.CoverMode() != "" {
		t.Skip("shape assertions measure CPU/I-O ratios; invalid under -cover")
	}
}

func TestTablePrint(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.Note("hello %d", 7)
	var buf bytes.Buffer
	tb.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// leastCompute runs three SCP breakdowns per device, the devices taking
// turns, and keeps each device's run with the least compute time. Compute
// steps are charged in thread CPU time, so a wait for a CPU while packages
// test side by side is not counted; what contention still adds (caches and
// memory bandwidth shared with other processes) only ever adds compute
// time, so the least-compute run is the device's own regime (the
// benchmark's favourable-decile rule). Taking turns spreads each device's
// runs over the whole test, not over one burst of contention.
func leastCompute(t *testing.T, sc Scale, devs ...string) map[string]core.Stats {
	t.Helper()
	best := map[string]core.Stats{}
	for i := 0; i < 3; i++ {
		for _, dev := range devs {
			st, err := scpBreakdown(sc, dev, defaultValueSize, 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := best[dev]; !ok || st.Steps.ComputeTime() < b.Steps.ComputeTime() {
				best[dev] = st
			}
		}
	}
	return best
}

// TestFig5Shape asserts the paper's central profiling claim: HDD
// compactions are I/O-bound with read dominant; SSD compactions are
// CPU-bound with a larger computation share than HDD. The absolute SSD
// compute share tracks the host's CPU speed against the simulated device
// (the paper reports > 0.60; a slower host reads about 0.50), so only the
// regime and the device ordering are asserted, each device on its
// least-compute run of three. The HDD margin is thin (compute is about
// 0.9× S1), which is why compute is charged in thread CPU time: charged in
// wall time, a busy host's CPU waits, dilated D×, tip HDD to CPU-bound.
func TestFig5Shape(t *testing.T) {
	skipUnderRace(t)
	runs := leastCompute(t, testScale(), "hdd", "ssd")

	hdd := runs["hdd"]
	r, hddCompute, w := hdd.Steps.Breakdown().Fractions()
	if r < 0.35 {
		t.Errorf("hdd read share %.2f, want > 0.35 (paper: >0.40)", r)
	}
	if r+w < 0.50 {
		t.Errorf("hdd I/O share %.2f, want > 0.50 (paper: ~0.60)", r+w)
	}
	if model.Classify(stepTimesFrom(hdd)) != model.IOBound {
		t.Error("hdd must be I/O-bound")
	}
	if w > 0.25 {
		t.Errorf("hdd write share %.2f, want < 0.25 (paper: <0.20)", w)
	}

	ssd := runs["ssd"]
	r, c, w := ssd.Steps.Breakdown().Fractions()
	if c <= hddCompute {
		t.Errorf("ssd compute share %.2f, want > hdd's %.2f", c, hddCompute)
	}
	if model.Classify(stepTimesFrom(ssd)) != model.CPUBound {
		t.Error("ssd must be CPU-bound")
	}
	if w <= r {
		t.Errorf("ssd write share %.2f should exceed read %.2f (write-after-erase)", w, r)
	}
}

// TestFig8Shape: the sort step's share decreases as values grow.
func TestFig8Shape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	share := func(vs int) float64 {
		st, err := scpBreakdown(sc, "ssd", vs, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Steps.Get(core.S4Sort)) / float64(st.Steps.Total())
	}
	small := share(64)
	big := share(1024)
	if small <= big {
		t.Errorf("sort share should shrink with value size: 64B=%.3f, 1024B=%.3f", small, big)
	}
	// CRC steps stay small (paper: <5% each; allow 10% at test scale).
	st, err := scpBreakdown(sc, "ssd", 100, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	tot := float64(st.Steps.Total())
	if crc := float64(st.Steps.Get(core.S2Checksum)) / tot; crc > 0.10 {
		t.Errorf("crc share %.3f too large", crc)
	}
	if recrc := float64(st.Steps.Get(core.S6ReChecksum)) / tot; recrc > 0.10 {
		t.Errorf("re-crc share %.3f too large", recrc)
	}
}

// TestFig9Shape: the write share falls as the sub-task (I/O) size grows.
func TestFig9Shape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	writeShare := func(sub int64) float64 {
		st, err := scpBreakdown(sc, "ssd", defaultValueSize, sub)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Steps.Get(core.S7Write)) / float64(st.Steps.Total())
	}
	small := writeShare(64 << 10)
	big := writeShare(2 << 20)
	if small <= big {
		t.Errorf("write share should shrink with sub-task size: 64K=%.3f 2M=%.3f", small, big)
	}
}

// TestFig10Shape: PCP beats SCP on both throughput and compaction
// bandwidth, on both devices.
func TestFig10Shape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	for _, dev := range []string{"hdd", "ssd"} {
		scp, err := RunLoad(LoadConfig{Device: dev, TimeScale: sc.TimeScale,
			Entries: sc.Fig10Entries[0], Engine: sc.engine(core.Config{Mode: core.ModeSCP})})
		if err != nil {
			t.Fatal(err)
		}
		pcp, err := RunLoad(LoadConfig{Device: dev, TimeScale: sc.TimeScale,
			Entries: sc.Fig10Entries[0], Engine: sc.engine(core.Config{Mode: core.ModePCP})})
		if err != nil {
			t.Fatal(err)
		}
		if scp.Stats.Compactions == 0 || pcp.Stats.Compactions == 0 {
			t.Fatalf("%s: no compactions ran; load too small", dev)
		}
		if pcp.CompactionBandwidth <= scp.CompactionBandwidth {
			t.Errorf("%s: PCP cbw %.1f ≤ SCP %.1f", dev,
				pcp.CompactionBandwidth/(1<<20), scp.CompactionBandwidth/(1<<20))
		}
		if pcp.IOPS < scp.IOPS*0.95 {
			t.Errorf("%s: PCP IOPS %.0f clearly below SCP %.0f", dev, pcp.IOPS, scp.IOPS)
		}
	}
}

// TestFig11Shape: PCP beats SCP at the paper's sweet-spot sub-task size,
// and too-large sub-tasks hurt PCP.
func TestFig11Shape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	run := func(mode core.Mode, sub int64) core.Stats {
		st, err := RunIsolated(IsolatedConfig{Device: "ssd", TimeScale: sc.TimeScale,
			UpperBytes: sc.CompactionBytes,
			Engine:     sc.engine(core.Config{Mode: mode, SubtaskSize: sub})})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	scp := run(core.ModeSCP, 256<<10)
	pcp := run(core.ModePCP, 256<<10)
	if pcp.Bandwidth() <= scp.Bandwidth() {
		t.Errorf("PCP %.1f ≤ SCP %.1f MiB/s at 256K sub-tasks",
			pcp.Bandwidth()/(1<<20), scp.Bandwidth()/(1<<20))
	}
	// One sub-task larger than the whole input (upper plus twice as much
	// lower) disables pipelining: PCP ≈ SCP.
	single := run(core.ModePCP, 4*sc.CompactionBytes)
	if single.Subtasks != 1 {
		t.Fatalf("a sub-task larger than the input should yield one sub-task, got %d", single.Subtasks)
	}
	if single.Bandwidth() > pcp.Bandwidth()*1.05 {
		t.Errorf("unpipelined run (%.1f) should not beat pipelined (%.1f)",
			single.Bandwidth()/(1<<20), pcp.Bandwidth()/(1<<20))
	}
}

// TestFig12CppcpShape: extra compute workers help a CPU-bound pipeline.
// This needs a compaction large enough that the single shared device does
// not become the bottleneck first (read and write serialize on one SSD),
// so it uses a 4 MiB upper input like the quick-scale Figure 12 run.
func TestFig12CppcpShape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	run := func(workers int) core.Stats {
		st, err := RunIsolated(IsolatedConfig{Device: "ssd", TimeScale: sc.TimeScale,
			UpperBytes: 4 << 20,
			Engine: sc.engine(core.Config{Mode: core.ModePCP, SubtaskSize: 512 << 10,
				ComputeParallel: workers})})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Single runs on a small host are noisy; compare best-of-two.
	best := func(workers int) float64 {
		a, b := run(workers).Bandwidth(), run(workers).Bandwidth()
		if a > b {
			return a
		}
		return b
	}
	one := best(1)
	two := best(2)
	if two < one*1.05 {
		t.Errorf("C-PPCP with 2 workers (%.1f) should beat 1 worker (%.1f)",
			two/(1<<20), one/(1<<20))
	}
}

// TestFig12SppcpShape: extra disks help an I/O-bound pipeline.
func TestFig12SppcpShape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	run := func(disks int) core.Stats {
		st, err := RunIsolated(IsolatedConfig{Device: "hdd", Disks: disks, RAID0: true,
			TimeScale:  sc.TimeScale,
			UpperBytes: sc.CompactionBytes,
			Engine: sc.engine(core.Config{Mode: core.ModePCP, SubtaskSize: 256 << 10,
				IOParallel: disks})})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Single runs on a small host are noisy; compare best-of-two.
	best := func(disks int) float64 {
		a, b := run(disks).Bandwidth(), run(disks).Bandwidth()
		if a > b {
			return a
		}
		return b
	}
	one := best(1)
	three := best(3)
	if three < one*1.05 {
		t.Errorf("S-PPCP with 3 disks (%.1f) should beat 1 disk (%.1f)",
			three/(1<<20), one/(1<<20))
	}
}

// TestFigCodecShape: the compute share rises with the codec's CPU cost,
// none < snappy < flate.
func TestFigCodecShape(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	sc.CompactionBytes = 1 << 20
	prev, prevKind := -1.0, ""
	for _, kind := range codecKinds {
		st, err := codecRun(sc, kind)
		if err != nil {
			t.Fatal(err)
		}
		_, c, _ := st.Steps.Breakdown().Fractions()
		if c <= prev {
			t.Errorf("compute share %s %.2f, want above %s's %.2f", kind, c, prevKind, prev)
		}
		prev, prevKind = c, kind.String()
	}
}

// TestModelAgreesWithMeasurement: the analytical model's regime matches the
// measured one, and measured PCP speedup does not exceed the ideal Eq.3
// prediction (the paper: practice trails the ideal by ~10%).
func TestModelAgreesWithMeasurement(t *testing.T) {
	skipUnderRace(t)
	sc := testScale()
	for _, dev := range []string{"hdd", "ssd"} {
		scp, err := scpBreakdown(sc, dev, defaultValueSize, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		steps := stepTimesFrom(scp)
		rep := model.Analyze(scp.InputBytes, steps)

		pcp, err := RunIsolated(IsolatedConfig{Device: dev, TimeScale: sc.TimeScale,
			UpperBytes: sc.CompactionBytes,
			Engine:     sc.engine(core.Config{Mode: core.ModePCP, SubtaskSize: 256 << 10})})
		if err != nil {
			t.Fatal(err)
		}
		measured := pcp.Bandwidth() / scp.Bandwidth()
		if measured > rep.PcpSpeedup*1.25 {
			t.Errorf("%s: measured speedup %.2f far exceeds ideal %.2f", dev, measured, rep.PcpSpeedup)
		}
		if measured < 1.0 {
			t.Errorf("%s: PCP slower than SCP (%.2f)", dev, measured)
		}
	}
}

// TestFigureFunctionsProduceTables smoke-runs the cheap figure functions
// end to end (the expensive sweeps are covered by cmd/pcpbench).
func TestFigureFunctionsProduceTables(t *testing.T) {
	sc := testScale()
	tb, err := Fig5(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 || len(tb.Columns) != 5 {
		t.Fatalf("Fig5 table shape: %d rows, %d cols", len(tb.Rows), len(tb.Columns))
	}
	var buf bytes.Buffer
	tb.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
