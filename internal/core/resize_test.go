package core

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"pcplsm/internal/storage"
)

// scriptedGovernor replays a fixed sequence of width verdicts, one per
// Adjust call, then holds the last one.
type scriptedGovernor struct {
	script []PipelineResize

	mu    sync.Mutex
	calls int
	seen  []PipelineTelemetry
}

func (g *scriptedGovernor) Adjust(t PipelineTelemetry) PipelineResize {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen = append(g.seen, t)
	i := g.calls
	g.calls++
	if i >= len(g.script) {
		i = len(g.script) - 1
	}
	return g.script[i]
}

// resizeDump runs cfg over a fixed two-table input set and returns the
// output tables (bytes, sorted by smallest key) plus the run's Result.
func resizeDump(t *testing.T, cfg Config) ([][]byte, *Result) {
	t.Helper()
	upper := genEntries(3000, 50000, 20000, 17)
	lower := genEntries(4000, 1, 20000, 18)
	fs := storage.NewMemFS()
	inputs := []*TableSource{
		buildInputTable(t, fs, "u.sst", append([]kv(nil), upper...), 1024),
		buildInputTable(t, fs, "l.sst", append([]kv(nil), lower...), 1024),
	}
	cfg.SubtaskSize = 16 << 10
	cfg.TableSize = 32 << 10
	res, err := Run(cfg, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatalf("run %v: %v", cfg.Mode, err)
	}
	return dumpTables(t, fs, res.Outputs), res
}

// dumpTables returns the bytes of the output tables in key order.
func dumpTables(t *testing.T, fs storage.FS, outs []Output) [][]byte {
	t.Helper()
	type tableDump struct {
		smallest string
		content  []byte
	}
	var dumps []tableDump
	for _, o := range outs {
		data, err := storage.ReadAll(fs, o.Name)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, tableDump{smallest: string(o.Meta.Smallest), content: data})
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].smallest < dumps[j].smallest })
	out := make([][]byte, len(dumps))
	for i := range dumps {
		out[i] = dumps[i].content
	}
	return out
}

func assertSameTables(t *testing.T, name string, got, ref [][]byte) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d tables, reference has %d", name, len(got), len(ref))
	}
	for i := range ref {
		if !bytes.Equal(got[i], ref[i]) {
			t.Fatalf("%s: table %d differs from reference output", name, i)
		}
	}
}

// TestGovernorResizeMidRun: a governor that grows the pipeline to 3 compute
// + 2 I/O workers and later shrinks it back produces byte-identical output
// to a fixed-width run, and the resize dynamics land in Stats.Pipeline.
func TestGovernorResizeMidRun(t *testing.T) {
	ref, fixedRes := resizeDump(t, Config{Mode: ModePCP})
	if fixedRes.Stats.Subtasks < 6 {
		t.Fatalf("only %d sub-tasks; need enough for the script to play out",
			fixedRes.Stats.Subtasks)
	}

	gov := &scriptedGovernor{script: []PipelineResize{
		{Compute: 3, IO: 2}, // grow both stages
		{Compute: 3, IO: 2}, // hold
		{Compute: 1, IO: 1}, // shrink back
	}}
	got, res := resizeDump(t, Config{Mode: ModePCP, Governor: gov})

	if gov.calls == 0 {
		t.Fatal("governor was never consulted")
	}
	p := res.Stats.Pipeline
	if p.MaxComputeWorkers < 3 {
		t.Errorf("MaxComputeWorkers = %d, want >= 3", p.MaxComputeWorkers)
	}
	if p.MaxIOWorkers < 2 {
		t.Errorf("MaxIOWorkers = %d, want >= 2", p.MaxIOWorkers)
	}
	if p.Grows < 1 || p.Shrinks < 1 {
		t.Errorf("Grows/Shrinks = %d/%d, want both >= 1", p.Grows, p.Shrinks)
	}
	if p.InitialComputeWorkers != 1 || p.InitialIOWorkers != 1 {
		t.Errorf("initial widths = %d/%d, want 1/1",
			p.InitialComputeWorkers, p.InitialIOWorkers)
	}
	if res.Stats.Mode != ModePCP {
		t.Errorf("Stats.Mode = %v, want pcp", res.Stats.Mode)
	}
	// Calls are serialized and each verdict is applied before the next call,
	// so every call sees exactly the widths the previous verdict set, even
	// after the read stage has drained.
	want := PipelineResize{Compute: 1, IO: 1}
	for i, tel := range gov.seen {
		if tel.SubtasksDone < 1 || tel.SubtasksDone > tel.Subtasks {
			t.Fatalf("telemetry SubtasksDone %d out of range [1,%d]",
				tel.SubtasksDone, tel.Subtasks)
		}
		if tel.ComputeWorkers != want.Compute || tel.IOWorkers != want.IO {
			t.Fatalf("call %d: telemetry widths %d/%d, want the set widths %d/%d",
				i, tel.ComputeWorkers, tel.IOWorkers, want.Compute, want.IO)
		}
		want = gov.script[min(i, len(gov.script)-1)]
	}
	assertSameTables(t, "resized", got, ref)
}

// TestDrainedStageKeepsItsWidth: workers that exit because their input
// closed leave the stage's set width alone, so a governor consulted after
// the read stage drained sees the width it set, and a no-change verdict
// spawns nothing.
func TestDrainedStageKeepsItsWidth(t *testing.T) {
	var s pcpStage
	s.init(2)
	s.exited()
	s.exited()
	if w := s.width(); w != 2 {
		t.Fatalf("drained stage reports width %d, want its set width 2", w)
	}
	spawned := 0
	if s.resize(2, func() { spawned++ }) || spawned != 0 {
		t.Fatalf("no-change resize on a drained stage spawned %d workers", spawned)
	}
}

// TestGovernorVerdictClamped: absurd governor verdicts are clamped to
// [1, maxStageWorkers] and the run still completes correctly.
func TestGovernorVerdictClamped(t *testing.T) {
	ref, _ := resizeDump(t, Config{Mode: ModePCP})
	gov := &scriptedGovernor{script: []PipelineResize{
		{Compute: -5, IO: 0},      // below the floor
		{Compute: 100000, IO: 99}, // above the ceiling
		{Compute: 1, IO: 1},
	}}
	got, res := resizeDump(t, Config{Mode: ModePCP, Governor: gov})
	if mx := res.Stats.Pipeline.MaxComputeWorkers; mx > maxStageWorkers {
		t.Errorf("MaxComputeWorkers = %d, exceeded the clamp %d", mx, maxStageWorkers)
	}
	assertSameTables(t, "clamped", got, ref)
}

// TestZeroModeIsPCP: the zero-valued Mode pipelines, byte-identically to
// SCP.
func TestZeroModeIsPCP(t *testing.T) {
	refTables, _ := resizeDump(t, Config{Mode: ModeSCP})
	got, res := resizeDump(t, Config{})
	if res.Stats.Mode != ModePCP || res.Stats.Pipeline.InitialComputeWorkers != 1 {
		t.Fatalf("Stats.Mode = %v, pipeline %+v: want pcp", res.Stats.Mode, res.Stats.Pipeline)
	}
	if ModePCP.String() != "pcp" || ModeSCP.String() != "scp" {
		t.Fatalf("String = %q, %q", ModePCP.String(), ModeSCP.String())
	}
	assertSameTables(t, "zero", got, refTables)
}

// TestPipelineIdleAccounting: a PCP run records worker idle time consistent
// with lifetimes (idle >= 0 enforced by construction; busy must be > 0).
func TestPipelineIdleAccounting(t *testing.T) {
	_, res := resizeDump(t, Config{Mode: ModePCP, ComputeParallel: 2, IOParallel: 2})
	s := res.Stats
	if s.StageBusy.Read <= 0 || s.StageBusy.Compute <= 0 || s.StageBusy.Write <= 0 {
		t.Fatalf("stage busy times not all positive: %+v", s.StageBusy)
	}
	p := s.Pipeline
	if p.InitialComputeWorkers != 2 || p.InitialIOWorkers != 2 {
		t.Fatalf("initial widths = %d/%d, want 2/2", p.InitialComputeWorkers, p.InitialIOWorkers)
	}
	if p.StageIdle.Read < 0 || p.StageIdle.Compute < 0 || p.StageIdle.Write < 0 {
		t.Fatalf("negative stage idle: %+v", p.StageIdle)
	}
}
