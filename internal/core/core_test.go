package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"pcplsm/internal/compress"
	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
)

// kv is a test entry: user key, seq, kind, value.
type kv struct {
	user string
	seq  uint64
	kind ikey.Kind
	val  string
}

// buildInputTable writes entries (sorted by internal key) into a new table.
func buildInputTable(t testing.TB, fs storage.FS, name string, entries []kv, blockSize int) *TableSource {
	t.Helper()
	sort.Slice(entries, func(i, j int) bool {
		a := ikey.Make([]byte(entries[i].user), entries[i].seq, entries[i].kind)
		b := ikey.Make([]byte(entries[j].user), entries[j].seq, entries[j].kind)
		return ikey.Compare(a, b) < 0
	})
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{BlockSize: blockSize, Compare: ikey.Compare})
	for _, e := range entries {
		if err := w.Add(ikey.Make([]byte(e.user), e.seq, e.kind), []byte(e.val)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sstable.NewReader(rf, ikey.Compare)
	if err != nil {
		t.Fatal(err)
	}
	return NewTableSource(r)
}

// memSink allocates sequentially numbered output files on fs.
func memSink(fs storage.FS, prefix string) OutputSink {
	var n atomic.Int64
	return func() (string, storage.File, error) {
		name := fmt.Sprintf("%s%06d.sst", prefix, n.Add(1))
		f, err := fs.Create(name)
		return name, f, err
	}
}

// referenceMerge computes the expected surviving entries: newest version per
// user key, optionally dropping tombstones.
func referenceMerge(inputs [][]kv, dropTombstones bool) []kv {
	var all []kv
	for _, in := range inputs {
		all = append(all, in...)
	}
	sort.Slice(all, func(i, j int) bool {
		a := ikey.Make([]byte(all[i].user), all[i].seq, all[i].kind)
		b := ikey.Make([]byte(all[j].user), all[j].seq, all[j].kind)
		return ikey.Compare(a, b) < 0
	})
	var out []kv
	lastUser := ""
	have := false
	for _, e := range all {
		if have && e.user == lastUser {
			continue
		}
		lastUser, have = e.user, true
		if dropTombstones && e.kind == ikey.KindDelete {
			continue
		}
		out = append(out, e)
	}
	return out
}

// collectOutputs reads back every output table and returns its entries in
// key order.
func collectOutputs(t testing.TB, fs storage.FS, outs []Output) []kv {
	t.Helper()
	var got []kv
	for _, o := range outs {
		f, err := fs.Open(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sstable.NewReader(f, ikey.Compare)
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			got = append(got, kv{
				user: string(ikey.UserKey(it.Key())),
				seq:  ikey.Seq(it.Key()),
				kind: ikey.KindOf(it.Key()),
				val:  string(it.Value()),
			})
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		r.Close()
	}
	return got
}

func genEntries(n int, seqBase uint64, keySpace int, seed int64) []kv {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []kv
	for len(out) < n {
		u := fmt.Sprintf("user%08d", rng.Intn(keySpace))
		if seen[u] {
			continue
		}
		seen[u] = true
		kind := ikey.KindSet
		if rng.Intn(10) == 0 {
			kind = ikey.KindDelete
		}
		out = append(out, kv{user: u, seq: seqBase + uint64(len(out)), kind: kind,
			val: fmt.Sprintf("val-%d-%d", seqBase, rng.Int63())})
	}
	return out
}

// engineConfigs enumerates the four procedures.
func engineConfigs() map[string]Config {
	return map[string]Config{
		"scp":    {Mode: ModeSCP},
		"pcp":    {Mode: ModePCP},
		"c-ppcp": {Mode: ModePCP, ComputeParallel: 4},
		"s-ppcp": {Mode: ModePCP, IOParallel: 4},
	}
}

func TestAllEnginesMatchReference(t *testing.T) {
	upper := genEntries(3000, 100000, 50000, 1)
	lower1 := genEntries(2000, 1, 50000, 2)
	lower2 := genEntries(2000, 50000, 50000, 3)
	want := referenceMerge([][]kv{upper, lower1, lower2}, false)

	for name, cfg := range engineConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			fs := storage.NewMemFS()
			inputs := []*TableSource{
				buildInputTable(t, fs, "u.sst", append([]kv(nil), upper...), 1024),
				buildInputTable(t, fs, "l1.sst", append([]kv(nil), lower1...), 1024),
				buildInputTable(t, fs, "l2.sst", append([]kv(nil), lower2...), 1024),
			}
			cfg.SubtaskSize = 32 << 10
			cfg.TableSize = 64 << 10
			res, err := Run(cfg, inputs, memSink(fs, "out-"))
			if err != nil {
				t.Fatal(err)
			}
			got := collectOutputs(t, fs, res.Outputs)
			if len(got) != len(want) {
				t.Fatalf("%d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
				}
			}
			if res.Stats.EntriesOut != int64(len(want)) {
				t.Errorf("Stats.EntriesOut = %d, want %d", res.Stats.EntriesOut, len(want))
			}
			if res.Stats.Subtasks < 2 {
				t.Errorf("expected multiple subtasks, got %d", res.Stats.Subtasks)
			}
			if res.Stats.OutputTables != len(res.Outputs) {
				t.Errorf("OutputTables mismatch")
			}
		})
	}
}

func TestShadowingNewestWins(t *testing.T) {
	fs := storage.NewMemFS()
	upper := []kv{{"k1", 100, ikey.KindSet, "new"}, {"k2", 101, ikey.KindDelete, ""}}
	lower := []kv{{"k1", 5, ikey.KindSet, "old"}, {"k2", 6, ikey.KindSet, "old2"}, {"k3", 7, ikey.KindSet, "keep"}}
	inputs := []*TableSource{
		buildInputTable(t, fs, "u.sst", upper, 4096),
		buildInputTable(t, fs, "l.sst", lower, 4096),
	}
	res, err := Run(Config{Mode: ModePCP}, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	got := collectOutputs(t, fs, res.Outputs)
	want := []kv{
		{"k1", 100, ikey.KindSet, "new"},
		{"k2", 101, ikey.KindDelete, ""},
		{"k3", 7, ikey.KindSet, "keep"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries: %+v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if res.Stats.EntriesDropped != 2 {
		t.Errorf("EntriesDropped = %d, want 2", res.Stats.EntriesDropped)
	}
}

func TestDropTombstones(t *testing.T) {
	fs := storage.NewMemFS()
	upper := []kv{{"a", 10, ikey.KindDelete, ""}, {"b", 11, ikey.KindSet, "bv"}}
	lower := []kv{{"a", 1, ikey.KindSet, "av"}, {"c", 2, ikey.KindDelete, ""}}
	inputs := []*TableSource{
		buildInputTable(t, fs, "u.sst", upper, 4096),
		buildInputTable(t, fs, "l.sst", lower, 4096),
	}
	res, err := Run(Config{Mode: ModeSCP, DropTombstones: true}, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	got := collectOutputs(t, fs, res.Outputs)
	if len(got) != 1 || got[0].user != "b" {
		t.Fatalf("tombstone elimination failed: %+v", got)
	}
}

// TestScpPcpIdenticalOutput checks that all engines produce byte-identical
// table contents (determinism: pipelining must not change results).
func TestScpPcpIdenticalOutput(t *testing.T) {
	upper := genEntries(2000, 50000, 20000, 7)
	lower := genEntries(3000, 1, 20000, 8)

	type tableDump struct {
		smallest string
		content  []byte
	}
	dump := func(cfgName string, cfg Config) []tableDump {
		fs := storage.NewMemFS()
		inputs := []*TableSource{
			buildInputTable(t, fs, "u.sst", append([]kv(nil), upper...), 1024),
			buildInputTable(t, fs, "l.sst", append([]kv(nil), lower...), 1024),
		}
		cfg.SubtaskSize = 16 << 10
		cfg.TableSize = 32 << 10
		res, err := Run(cfg, inputs, memSink(fs, "o-"))
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		var dumps []tableDump
		for _, o := range res.Outputs {
			data, err := storage.ReadAll(fs, o.Name)
			if err != nil {
				t.Fatal(err)
			}
			dumps = append(dumps, tableDump{smallest: string(o.Meta.Smallest), content: data})
		}
		sort.Slice(dumps, func(i, j int) bool { return dumps[i].smallest < dumps[j].smallest })
		return dumps
	}

	ref := dump("scp", Config{Mode: ModeSCP})
	for name, cfg := range engineConfigs() {
		got := dump(name, cfg)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d tables, scp has %d", name, len(got), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(got[i].content, ref[i].content) {
				t.Fatalf("%s: table %d differs from scp output", name, i)
			}
		}
	}
}

func TestSingleTableCompaction(t *testing.T) {
	// Compacting a single table (move/rewrite) must preserve everything.
	fs := storage.NewMemFS()
	entries := genEntries(1000, 1, 100000, 4)
	inputs := []*TableSource{buildInputTable(t, fs, "t.sst", append([]kv(nil), entries...), 512)}
	res, err := Run(Config{Mode: ModePCP, SubtaskSize: 8 << 10}, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	got := collectOutputs(t, fs, res.Outputs)
	want := referenceMerge([][]kv{entries}, false)
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
}

// TestHugeSubtaskKeepsEveryEntry: a sub-task far larger than the input
// (one sub-task for the whole compaction) must not size any buffer by the
// sub-task target; the write buffer is bounded by TableSize.
func TestHugeSubtaskKeepsEveryEntry(t *testing.T) {
	fs := storage.NewMemFS()
	upper := genEntries(1000, 10000, 20000, 31)
	lower := genEntries(1000, 1, 20000, 32)
	inputs := []*TableSource{
		buildInputTable(t, fs, "u.sst", append([]kv(nil), upper...), 1024),
		buildInputTable(t, fs, "l.sst", append([]kv(nil), lower...), 1024),
	}
	for name, cfg := range map[string]Config{"scp": {Mode: ModeSCP}, "pcp": {Mode: ModePCP}} {
		cfg.SubtaskSize = 1 << 40
		res, err := Run(cfg, inputs, memSink(fs, name+"-"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Subtasks != 1 {
			t.Fatalf("%s: %d sub-tasks, want 1", name, res.Stats.Subtasks)
		}
		got := collectOutputs(t, fs, res.Outputs)
		want := referenceMerge([][]kv{upper, lower}, false)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestRunNoInputs(t *testing.T) {
	if _, err := Run(Config{}, nil, memSink(storage.NewMemFS(), "o-")); err != ErrNoInput {
		t.Fatalf("err = %v, want ErrNoInput", err)
	}
}

func TestEmptyInputTables(t *testing.T) {
	fs := storage.NewMemFS()
	inputs := []*TableSource{buildInputTable(t, fs, "e.sst", nil, 4096)}
	res, err := Run(Config{Mode: ModePCP}, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 || res.Stats.Subtasks != 0 {
		t.Fatalf("empty input produced %d outputs, %d subtasks", len(res.Outputs), res.Stats.Subtasks)
	}
}

func TestTableSizeSplitsOutputs(t *testing.T) {
	fs := storage.NewMemFS()
	entries := genEntries(5000, 1, 1000000, 5)
	inputs := []*TableSource{buildInputTable(t, fs, "t.sst", append([]kv(nil), entries...), 1024)}
	res, err := Run(Config{Mode: ModeSCP, TableSize: 16 << 10, Codec: compress.MustByKind(compress.None)},
		inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) < 4 {
		t.Fatalf("expected several output tables, got %d", len(res.Outputs))
	}
	for _, o := range res.Outputs {
		if o.Meta.FileSize > (16<<10)+8<<10 {
			t.Errorf("table %s is %d bytes, exceeds cap", o.Name, o.Meta.FileSize)
		}
	}
	// Outputs must be disjoint and ordered.
	for i := 1; i < len(res.Outputs); i++ {
		prev, cur := res.Outputs[i-1].Meta, res.Outputs[i].Meta
		if ikey.Compare(prev.Largest, cur.Smallest) >= 0 {
			t.Fatalf("outputs %d and %d overlap: %s vs %s", i-1, i,
				ikey.String(prev.Largest), ikey.String(cur.Smallest))
		}
	}
}

func TestNoUserKeySpansOutputTables(t *testing.T) {
	// Multiple versions of one user key must never end up in different
	// output tables (level invariant).
	fs := storage.NewMemFS()
	var entries []kv
	for i := 0; i < 200; i++ {
		u := fmt.Sprintf("user%04d", i)
		for v := 0; v < 20; v++ {
			entries = append(entries, kv{u, uint64(i*100 + v + 1), ikey.KindSet, fmt.Sprintf("v%d", v)})
		}
	}
	inputs := []*TableSource{buildInputTable(t, fs, "t.sst", entries, 512)}
	// Tiny sub-tasks force boundaries between versions if unnormalized.
	res, err := Run(Config{Mode: ModePCP, SubtaskSize: 2 << 10, TableSize: 8 << 10}, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	// Shadowing keeps one version per user key, so simply assert the user
	// key ranges of output tables do not overlap.
	for i := 1; i < len(res.Outputs); i++ {
		prevLargest := ikey.UserKey(res.Outputs[i-1].Meta.Largest)
		curSmallest := ikey.UserKey(res.Outputs[i].Meta.Smallest)
		if string(prevLargest) > string(curSmallest) {
			t.Fatalf("user key ranges overlap between outputs %d and %d", i-1, i)
		}
	}
	got := collectOutputs(t, fs, res.Outputs)
	if len(got) != 200 {
		t.Fatalf("expected 200 surviving entries, got %d", len(got))
	}
	for _, e := range got {
		if e.val != "v19" {
			t.Fatalf("entry %s kept version %q, want v19", e.user, e.val)
		}
	}
}

func TestStatsPlausible(t *testing.T) {
	fs := storage.NewMemFS()
	entries := genEntries(4000, 1, 1000000, 6)
	inputs := []*TableSource{buildInputTable(t, fs, "t.sst", append([]kv(nil), entries...), 1024)}
	res, err := Run(Config{Mode: ModeSCP, SubtaskSize: 32 << 10}, inputs, memSink(fs, "o-"))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.InputBytes <= 0 || s.OutputBytes <= 0 {
		t.Fatalf("byte counters: %+v", s)
	}
	if s.Wall <= 0 || s.Bandwidth() <= 0 {
		t.Fatalf("wall/bandwidth: %v %f", s.Wall, s.Bandwidth())
	}
	if s.EntriesIn != 4000 || s.EntriesOut != 4000 {
		t.Fatalf("entries: in=%d out=%d", s.EntriesIn, s.EntriesOut)
	}
	for _, step := range []Step{S1Read, S2Checksum, S3Decompress, S4Sort, S5Compress, S6ReChecksum, S7Write} {
		if s.Steps.Get(step) < 0 {
			t.Fatalf("negative time for %v", step)
		}
	}
	if s.Steps.Get(S4Sort) == 0 {
		t.Fatal("S4 took zero time")
	}
	b := s.Steps.Breakdown()
	r, c, w := b.Fractions()
	if r+c+w < 0.99 || r+c+w > 1.01 {
		t.Fatalf("fractions do not sum to 1: %v %v %v", r, c, w)
	}
	if s.String() == "" || b.String() == "" {
		t.Fatal("empty stats strings")
	}
}

func TestCorruptInputBlockFailsCompaction(t *testing.T) {
	fs := storage.NewMemFS()
	entries := genEntries(500, 1, 100000, 9)
	buildInputTable(t, fs, "t.sst", append([]kv(nil), entries...), 1024)

	// Corrupt a data block in the middle of the file.
	data, _ := storage.ReadAll(fs, "t.sst")
	mut := append([]byte{}, data...)
	mut[len(mut)/3] ^= 0xff
	if err := storage.WriteFile(fs, "bad.sst", mut); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("bad.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sstable.NewReader(f, ikey.Compare)
	if err != nil {
		t.Skip("corruption landed in the index; covered elsewhere")
	}
	for name, cfg := range engineConfigs() {
		cfg.SubtaskSize = 8 << 10
		_, err := Run(cfg, []*TableSource{NewTableSource(r)}, memSink(fs, "o-"+name))
		if err == nil {
			t.Fatalf("%s: corrupt input compacted without error", name)
		}
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	fs := storage.NewMemFS()
	entries := genEntries(1000, 1, 100000, 10)
	inputs := []*TableSource{buildInputTable(t, fs, "t.sst", append([]kv(nil), entries...), 1024)}
	failing := func() (string, storage.File, error) {
		return "", nil, fmt.Errorf("disk full")
	}
	for name, cfg := range engineConfigs() {
		cfg.SubtaskSize = 8 << 10
		if _, err := Run(cfg, inputs, failing); err == nil {
			t.Fatalf("%s: sink error not propagated", name)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeSCP.String() != "scp" || ModePCP.String() != "pcp" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestStepString(t *testing.T) {
	names := map[Step]string{
		S1Read: "read", S2Checksum: "crc", S3Decompress: "decomp", S4Sort: "sort",
		S5Compress: "comp", S6ReChecksum: "re-crc", S7Write: "write",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q want %q", s, s.String(), want)
		}
	}
}

func TestUnknownModeRejected(t *testing.T) {
	fs := storage.NewMemFS()
	inputs := []*TableSource{buildInputTable(t, fs, "t.sst", []kv{{"a", 1, ikey.KindSet, "v"}}, 4096)}
	if _, err := Run(Config{Mode: Mode(42)}, inputs, memSink(fs, "o-")); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
