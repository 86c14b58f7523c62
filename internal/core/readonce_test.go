package core

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
)

// countingFile adds the bytes read through it to n.
type countingFile struct {
	storage.File
	n *atomic.Int64
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.n.Add(int64(n))
	return n, err
}

// fanIn is a wide many-run merge: 48 tables over one key space, cut into
// sub-tasks of about one block per input, so nearly every block spans a
// sub-task boundary — the shape of the tuner's many-run merges.
type fanIn struct {
	fs      storage.FS
	names   []string
	entries [][]kv
	read    atomic.Int64 // bytes read through the input files
	dataLen int64        // Σ data-block lengths over all inputs
	subtask int64
}

func newFanIn(t *testing.T) *fanIn {
	t.Helper()
	fi := &fanIn{fs: storage.NewMemFS()}
	var blocks int64
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("in-%02d.sst", i)
		entries := genEntries(300, uint64(i)*1000+1, 20000, int64(100+i))
		src := buildInputTable(t, fi.fs, name, append([]kv(nil), entries...), 1024)
		src.R.Close()
		fi.names = append(fi.names, name)
		fi.entries = append(fi.entries, entries)
		for _, e := range src.Entries {
			fi.dataLen += e.Handle.Length
			blocks++
		}
	}
	fi.subtask = fi.dataLen / blocks * int64(len(fi.names))
	return fi
}

// inputs opens every input through the read counter, then zeroes it so
// that only the compaction's own reads are counted.
func (fi *fanIn) inputs(t *testing.T) []*TableSource {
	t.Helper()
	var srcs []*TableSource
	for _, name := range fi.names {
		f, err := fi.fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sstable.NewReader(countingFile{File: f, n: &fi.read}, ikey.Compare)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, NewTableSource(r))
	}
	fi.read.Store(0)
	return srcs
}

// run compacts the inputs and returns the output tables' bytes in key order.
func (fi *fanIn) run(t *testing.T, name string, cfg Config, inputs []*TableSource) ([][]byte, *Result) {
	t.Helper()
	cfg.SubtaskSize = fi.subtask
	cfg.TableSize = 64 << 10
	res, err := Run(cfg, inputs, memSink(fi.fs, "o-"+name+"-"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return dumpTables(t, fi.fs, res.Outputs), res
}

// TestS1ReadsEachInputBlockOnce: with one reader, S1 fetches every input
// data block exactly once, however many sub-tasks share it, and
// Stats.InputBytes is those bytes. With parallel readers and compute
// workers the output stays byte-identical to SCP.
func TestS1ReadsEachInputBlockOnce(t *testing.T) {
	fi := newFanIn(t)
	var spanned int64
	for _, st := range Partition(fi.inputs(t), fi.subtask) {
		spanned += st.InputBytes
	}
	// The premise: sub-tasks share many boundary blocks, so reading each
	// span whole would fetch far more than the inputs hold.
	if spanned < fi.dataLen*3/2 {
		t.Fatalf("spans total %d bytes over %d of data: too few shared blocks to test", spanned, fi.dataLen)
	}

	var ref [][]byte
	for _, mode := range []Mode{ModeSCP, ModePCP} {
		inputs := fi.inputs(t)
		got, res := fi.run(t, mode.String(), Config{Mode: mode, IOParallel: 1}, inputs)
		if n := fi.read.Load(); n != fi.dataLen || res.Stats.InputBytes != fi.dataLen {
			t.Errorf("%v: read %d bytes, Stats.InputBytes %d; inputs hold %d (spans %d)",
				mode, n, res.Stats.InputBytes, fi.dataLen, spanned)
		}
		if ref == nil {
			// Nearly every block straddles a boundary here, so this also
			// checks that each sub-task merges exactly its own entries.
			want := referenceMerge(fi.entries, false)
			if got := collectOutputs(t, fi.fs, res.Outputs); !slices.Equal(got, want) {
				t.Fatalf("%v: %d entries out, the reference merge has %d", mode, len(got), len(want))
			}
			var in int64
			for _, e := range fi.entries {
				in += int64(len(e))
			}
			if res.Stats.EntriesIn != in {
				t.Fatalf("%v: Stats.EntriesIn %d, want %d", mode, res.Stats.EntriesIn, in)
			}
			ref = got
		} else {
			assertSameTables(t, mode.String(), got, ref)
		}
	}

	got, res := fi.run(t, "pcp-wide", Config{Mode: ModePCP, IOParallel: 4, ComputeParallel: 3}, fi.inputs(t))
	assertSameTables(t, "pcp-wide", got, ref)
	// Out-of-order readers may fetch a boundary block twice, but the
	// counter still reports exactly what was fetched.
	if n := fi.read.Load(); n != res.Stats.InputBytes || n < fi.dataLen {
		t.Errorf("pcp-wide: read %d bytes, Stats.InputBytes %d; inputs hold %d",
			n, res.Stats.InputBytes, fi.dataLen)
	}
}

// TestS1SharedCorruptBlockFailsInS2: a corrupt block that spans a sub-task
// boundary fails the compaction in S2, and the sub-task that takes it from
// the cursor verifies it too, rather than trusting the earlier check.
func TestS1SharedCorruptBlockFailsInS2(t *testing.T) {
	fi := newFanIn(t)
	inputs := fi.inputs(t)
	subtasks := Partition(inputs, fi.subtask)

	// Find a block that ends one sub-task's span and starts the next's.
	k, src, blk := -1, -1, -1
	for i := 1; i < len(subtasks) && k < 0; i++ {
		prev := map[int]BlockSpan{}
		for _, sp := range subtasks[i-1].Spans {
			prev[sp.Source] = sp
		}
		for _, sp := range subtasks[i].Spans {
			if p, ok := prev[sp.Source]; ok && p.To-1 == sp.From {
				k, src, blk = i, sp.Source, sp.From
				break
			}
		}
	}
	if k < 0 {
		t.Fatal("no block spans a sub-task boundary")
	}

	// Flip a byte in the middle of that block, in a copy of its table.
	data, err := storage.ReadAll(fi.fs, fi.names[src])
	if err != nil {
		t.Fatal(err)
	}
	h := inputs[src].Entries[blk].Handle
	data[h.Offset+h.Length/2] ^= 0xff
	if err := storage.WriteFile(fi.fs, "bad.sst", data); err != nil {
		t.Fatal(err)
	}
	fi.names[src] = "bad.sst"

	for i, cfg := range []Config{
		{Mode: ModeSCP}, {Mode: ModePCP},
		{Mode: ModePCP, IOParallel: 4, ComputeParallel: 3},
	} {
		cfg.SubtaskSize = fi.subtask
		_, err := Run(cfg, fi.inputs(t), memSink(fi.fs, fmt.Sprintf("o-%d-", i)))
		if err == nil || !strings.Contains(err.Error(), "S2") {
			t.Fatalf("%v (io %d): err = %v, want an S2 checksum failure", cfg.Mode, cfg.IOParallel, err)
		}
	}

	// The sub-task after the boundary takes the block from the cursor with
	// no I/O, and its own S2 still rejects it.
	inputs = fi.inputs(t)
	e := &engine{cfg: Config{}.withDefaults(), inputs: inputs, cursors: make([]s1Cursor, len(inputs))}
	if _, err := e.readSubtask(&subtasks[k-1]); err != nil {
		t.Fatal(err)
	}
	before := fi.read.Load()
	job, err := e.readSubtask(&subtasks[k])
	if err != nil {
		t.Fatal(err)
	}
	if fetched := fi.read.Load() - before; fetched > subtasks[k].InputBytes-h.Length {
		t.Fatalf("sub-task %d fetched %d bytes, want at most its spans (%d) less the kept block (%d)",
			k, fetched, subtasks[k].InputBytes, h.Length)
	}
	if _, err := e.verifyDecompress(job, &dilation{}); err == nil || !strings.Contains(err.Error(), "S2") {
		t.Fatalf("verify of the sub-task holding the kept corrupt block: err = %v, want S2", err)
	}
}
