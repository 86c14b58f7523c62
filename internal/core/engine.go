package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcplsm/internal/block"
	"pcplsm/internal/bloom"
	"pcplsm/internal/compress"
	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
)

// Mode selects the compaction procedure.
type Mode int

const (
	// ModePCP, the zero value, is the Pipelined Compaction Procedure: three
	// stages (read / compute / write) run concurrently over the sub-task
	// stream, joined by queues of depth queueDepth. With ComputeParallel > 1
	// it is C-PPCP; with IOParallel > 1 it is S-PPCP. Pipelining is the
	// paper's contribution, so a zero-valued Config pipelines.
	ModePCP Mode = iota
	// ModeSCP is the Sequential Compaction Procedure: sub-tasks run one
	// after another, each stepping S1…S7 in order.
	ModeSCP
)

// queueDepth is the buffer depth of the queues between pipeline stages.
// Depths 1, 2 and 8 measured the same bandwidth (EXPERIMENTS.md), so the
// depth is not a knob.
const queueDepth = 2

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePCP:
		return "pcp"
	case ModeSCP:
		return "scp"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// OutputSink allocates output table files. It must be safe for concurrent
// use: S-PPCP's write workers call it in parallel.
type OutputSink func() (name string, f storage.File, err error)

// Config parameterizes one compaction run.
type Config struct {
	// Mode selects PCP (the zero value) or SCP.
	Mode Mode
	// SubtaskSize is the target physical input bytes per sub-task. Zero or
	// a negative value selects the 512 KiB default (the best point in the
	// paper's Figure 11(a)).
	SubtaskSize int64
	// ComputeParallel is the number of compute-stage workers (C-PPCP when
	// > 1). Ignored under SCP.
	ComputeParallel int
	// IOParallel is the number of read-stage and write-stage workers
	// (S-PPCP when > 1, paired with a multi-device file system). Ignored
	// under SCP.
	IOParallel int
	// BlockSize is the uncompressed output data block size (default 4 KiB).
	BlockSize int
	// RestartInterval for output blocks.
	RestartInterval int
	// Codec compresses output blocks (default Snappy).
	Codec compress.Codec
	// TableSize caps output table file size (default 2 MiB, paper setting).
	TableSize int64
	// DropTombstones removes deletion markers that survive shadowing; legal
	// only when no older component can hold versions of the dropped keys.
	DropTombstones bool
	// RetainSeq is the smallest live snapshot's sequence number: versions
	// that a snapshot at RetainSeq (or newer) could still read are kept.
	// 0 means no snapshots — only the newest version of each key survives.
	RetainSeq uint64
	// BloomBitsPerKey, when positive, attaches a Bloom filter over user
	// keys to every output table (10 bits/key ≈ 0.8% false positives).
	// Point reads use the filters to skip tables — the bLSM optimization
	// from the paper's related work.
	BloomBitsPerKey int
	// CPUDilation, when >= 2, stretches every compute step (S2–S6) by
	// sleeping (D−1)× its thread CPU time, and charges the step D× that
	// CPU time. Together with scaling the simulated devices by the same
	// factor, this emulates running on a machine with more cores than the
	// host: the sleep portion of "computation" overlaps across compute
	// workers even when the host cannot run them simultaneously, so C-PPCP
	// scaling is observable on small hosts while every CPU-vs-I/O ratio is
	// preserved. Time a step spends waiting for a CPU is neither charged
	// nor dilated (off Linux, where the step is timed in wall time, it is
	// both). 0/1 = off.
	CPUDilation int
	// Governor, when set under ModePCP, is consulted between sub-tasks and
	// may resize the stage worker sets mid-run: ComputeParallel and
	// IOParallel become the starting widths rather than fixed ones. Ignored
	// under SCP, which has no stages to widen.
	Governor PipelineGovernor
}

func (c Config) withDefaults() Config {
	if c.SubtaskSize <= 0 {
		c.SubtaskSize = 512 << 10
	}
	if c.ComputeParallel <= 0 {
		c.ComputeParallel = 1
	}
	if c.IOParallel <= 0 {
		c.IOParallel = 1
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 10
	}
	if c.RestartInterval <= 0 {
		c.RestartInterval = block.DefaultRestartInterval
	}
	if c.Codec == nil {
		c.Codec = compress.MustByKind(compress.Snappy)
	}
	if c.TableSize <= 0 {
		c.TableSize = 2 << 20
	}
	return c
}

// Output describes one produced table.
type Output struct {
	Name string
	Meta sstable.TableMeta
}

// Result is a finished compaction: the output tables (sorted by smallest
// key) and the measured statistics.
type Result struct {
	Outputs []Output
	Stats   Stats
}

// ErrNoInput is returned when Run is given no input tables.
var ErrNoInput = errors.New("core: compaction has no input tables")

// Run executes one compaction over the input tables, writing outputs
// through sink. Input tables may overlap arbitrarily; version shadowing is
// resolved through internal-key sequence numbers.
func Run(cfg Config, inputs []*TableSource, sink OutputSink) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(inputs) == 0 {
		return nil, ErrNoInput
	}
	e := &engine{cfg: cfg, inputs: inputs, sink: sink, cancel: make(chan struct{}),
		cursors: make([]s1Cursor, len(inputs))}
	subtasks := Partition(inputs, cfg.SubtaskSize)

	start := time.Now()
	switch cfg.Mode {
	case ModeSCP:
		e.runSequential(subtasks)
	case ModePCP:
		e.runPipelined(subtasks)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	if e.err != nil {
		return nil, e.err
	}

	sort.Slice(e.outputs, func(i, j int) bool {
		return ikey.Compare(e.outputs[i].Meta.Smallest, e.outputs[j].Meta.Smallest) < 0
	})
	stats := Stats{
		Steps:        e.clock.snapshot(),
		Wall:         time.Since(start),
		Subtasks:     len(subtasks),
		InputTables:  len(inputs),
		OutputTables: len(e.outputs),
		InputBytes:   e.inputBytes.Load(),
		OutputBytes:  e.outputBytes.Load(),
		EntriesIn:    e.entriesIn.Load(),
		EntriesOut:   e.entriesOut.Load(),
	}
	stats.EntriesDropped = stats.EntriesIn - stats.EntriesOut
	stats.Mode = cfg.Mode
	stats.StageBusy.Read = time.Duration(e.busyRead.Load())
	stats.StageBusy.Compute = time.Duration(e.busyCompute.Load())
	stats.StageBusy.Write = time.Duration(e.busyWrite.Load())
	if e.pipe != nil {
		stats.Pipeline = e.pipe.stats(stats.StageBusy)
	}
	return &Result{Outputs: e.outputs, Stats: stats}, nil
}

// engine carries the shared state of one compaction run.
type engine struct {
	cfg    Config
	inputs []*TableSource
	sink   OutputSink
	clock  stepClock
	// cursors holds one S1 cursor per input, indexed like inputs.
	cursors []s1Cursor

	inputBytes, outputBytes          atomic.Int64
	entriesIn, entriesOut            atomic.Int64
	busyRead, busyCompute, busyWrite atomic.Int64

	outMu   sync.Mutex
	outputs []Output

	// pipe is the live 3-stage pipeline state under ModePCP; nil otherwise.
	pipe *pcpPipe

	errOnce sync.Once
	err     error
	cancel  chan struct{}
}

func (e *engine) fail(err error) {
	e.errOnce.Do(func() {
		e.err = err
		close(e.cancel)
	})
}

func (e *engine) canceled() bool {
	select {
	case <-e.cancel:
		return true
	default:
		return false
	}
}

// dilation tracks one worker's CPU-dilation debt. The target extra time is
// charged to the step clock exactly; the sleep itself is settled once per
// sub-task with an oversleep credit carried forward, so OS timer overshoot
// (~1ms per sleep) does not distort measurements.
type dilation struct {
	pending time.Duration // dilation owed but not yet slept
	credit  time.Duration // banked oversleep
}

// settle sleeps off the pending dilation.
func (dil *dilation) settle() {
	target := dil.pending - dil.credit
	dil.pending = 0
	if target <= 0 {
		dil.credit = -target
		return
	}
	t0 := time.Now()
	time.Sleep(target)
	dil.credit = time.Since(t0) - target
}

// computeTime runs one compute step, charges its dilated thread CPU time
// to step s, and queues the dilation sleep on dil. Charging CPU time rather
// than wall time keeps a host's contention out of the step: a wait for a
// CPU, stretched D× by dilation, would otherwise read as compute.
func (e *engine) computeTime(dil *dilation, s Step, f func()) {
	charged := cpuTime(f)
	if d := e.cfg.CPUDilation; d > 1 {
		extra := charged * time.Duration(d-1)
		dil.pending += extra
		charged += extra
	}
	e.clock.add(s, charged)
}

// rawJob is a sub-task after the read stage: physical blocks per span.
type rawJob struct {
	st  *Subtask
	raw [][][]byte // raw[spanIdx][blockIdx] = physical block bytes
}

// sealedBlock is a finished output block awaiting S7.
type sealedBlock struct {
	first, last []byte
	physical    []byte
	entries     int64
	hashes      []uint32
}

// sealedTable groups the sealed blocks of one output table.
type sealedTable struct {
	blocks []sealedBlock
	bytes  int64
}

// writeJob is a sub-task after the compute stage.
type writeJob struct {
	tables []sealedTable
}

// runSequential is SCP: every sub-task runs S1…S7 inline, in key order.
func (e *engine) runSequential(subtasks []Subtask) {
	var dil dilation
	for i := range subtasks {
		job, err := e.readSubtask(&subtasks[i])
		if err != nil {
			e.fail(err)
			return
		}
		begin := time.Now()
		wj, err := e.computeSubtask(job, &dil)
		e.busyCompute.Add(int64(time.Since(begin)))
		if err != nil {
			e.fail(err)
			return
		}
		if err := e.writeSubtask(wj); err != nil {
			e.fail(err)
			return
		}
	}
	// Under SCP the I/O "stages" are just S1 and S7. The compute stage is
	// timed in wall time above, as the pipeline's compute workers time it:
	// the S2–S6 step clocks count CPU time only.
	st := e.clock.snapshot()
	e.busyRead.Store(int64(st.ReadTime()))
	e.busyWrite.Store(int64(st.WriteTime()))
}

// readSubtask performs S1: one contiguous physical read per span, sliced
// into per-block buffers. A span that starts at the block its input's
// cursor kept takes that block from the cursor and reads only the rest, so
// the block spanning a sub-task boundary is fetched once, not once per
// sub-task that uses it.
func (e *engine) readSubtask(st *Subtask) (*rawJob, error) {
	job := &rawJob{st: st, raw: make([][][]byte, len(st.Spans))}
	for i, sp := range st.Spans {
		src := e.inputs[sp.Source]
		cur := &e.cursors[sp.Source]
		blocks := make([][]byte, 0, sp.To-sp.From)
		from := sp.From
		if kept := cur.take(from); kept != nil {
			blocks = append(blocks, kept)
			from++
		}
		if from < sp.To {
			first := src.Entries[from].Handle
			last := src.Entries[sp.To-1].Handle
			span := sstable.BlockHandle{
				Offset: first.Offset,
				Length: last.Offset + last.Length - first.Offset,
			}
			var buf []byte
			var err error
			e.clock.time(S1Read, func() {
				buf, err = src.R.ReadRaw(nil, span)
			})
			if err != nil {
				return nil, fmt.Errorf("core: S1 read span %d of subtask %d: %w", i, st.Index, err)
			}
			e.inputBytes.Add(span.Length)
			for j := from; j < sp.To; j++ {
				h := src.Entries[j].Handle
				off := h.Offset - first.Offset
				blocks = append(blocks, buf[off:off+h.Length])
			}
			cur.keep(sp.To-1, blocks[len(blocks)-1])
		}
		job.raw[i] = blocks
	}
	return job, nil
}

// s1Cursor keeps the last data block S1 read from one input. Consecutive
// sub-tasks share at most one block per input, the one spanning their
// boundary, so the kept block is the only one a later span can ask for
// again. The lock guards the check and the update, never the read itself:
// an S-PPCP reader that runs ahead of its neighbour just reads fresh.
type s1Cursor struct {
	mu   sync.Mutex
	idx  int    // block index of kept
	kept []byte // private copy of block idx's physical bytes; never mutated
}

// take returns the kept block if it is block idx, else nil.
func (c *s1Cursor) take(idx int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kept != nil && c.idx == idx {
		return c.kept
	}
	return nil
}

// keep records block idx unless the cursor already holds a later one. The
// copy stops the cursor from pinning the whole span buffer it came from.
func (c *s1Cursor) keep(idx int, physical []byte) {
	cp := append([]byte(nil), physical...)
	c.mu.Lock()
	if c.kept == nil || idx > c.idx {
		c.idx, c.kept = idx, cp
	}
	c.mu.Unlock()
}

// plainJob is a sub-task after S2+S3: decompressed input blocks per span.
type plainJob struct {
	st     *Subtask
	plains [][][]byte
}

// plainBlock is a merged output block before compression.
type plainBlock struct {
	first, last []byte
	data        []byte
	entries     int64
	hashes      []uint32 // Bloom filter hashes of the block's user keys
}

// builtJob is a sub-task after S4: merged plain output blocks.
type builtJob struct {
	st        *Subtask
	outBlocks []plainBlock
}

// verifyDecompress performs S2 (checksum verification) and S3
// (decompression) for one sub-task.
func (e *engine) verifyDecompress(job *rawJob, dil *dilation) (*plainJob, error) {
	// S2: verify every input block's checksum.
	payloads := make([][][]byte, len(job.raw))
	var verr error
	e.computeTime(dil, S2Checksum, func() {
		for i, blocks := range job.raw {
			payloads[i] = make([][]byte, len(blocks))
			for j, physical := range blocks {
				p, err := sstable.VerifyBlockChecksum(physical)
				if err != nil {
					verr = fmt.Errorf("core: S2 subtask %d: %w", job.st.Index, err)
					return
				}
				payloads[i][j] = p
			}
		}
	})
	if verr != nil {
		return nil, verr
	}

	// S3: decompress every input block.
	plains := make([][][]byte, len(payloads))
	var derr error
	e.computeTime(dil, S3Decompress, func() {
		for i, ps := range payloads {
			plains[i] = make([][]byte, len(ps))
			for j, p := range ps {
				d, err := sstable.DecompressBlock(nil, p)
				if err != nil {
					derr = fmt.Errorf("core: S3 subtask %d: %w", job.st.Index, err)
					return
				}
				plains[i][j] = d
			}
		}
	})
	if derr != nil {
		return nil, derr
	}
	dil.settle()
	return &plainJob{st: job.st, plains: plains}, nil
}

// mergeBuild performs S4: the k-way merge and output block formation.
func (e *engine) mergeBuild(pj *plainJob, dil *dilation) (*builtJob, error) {
	var outBlocks []plainBlock
	builder := block.NewBuilder(e.cfg.RestartInterval, ikey.Compare)
	var curFirst, curLast []byte
	var curEntries int64
	var curHashes []uint32
	flush := func() {
		if builder.Empty() {
			return
		}
		data := append([]byte(nil), builder.Finish()...)
		outBlocks = append(outBlocks, plainBlock{
			first:   append([]byte(nil), curFirst...),
			last:    append([]byte(nil), curLast...),
			data:    data,
			entries: curEntries,
			hashes:  curHashes,
		})
		builder.Reset()
		curEntries = 0
		curHashes = nil
	}
	var seen, emitted int64
	var merr error
	e.computeTime(dil, S4Sort, func() {
		sources := make([]*concatIter, len(pj.plains))
		for i := range pj.plains {
			sources[i] = newConcatIter(pj.plains[i])
		}
		seen, emitted, merr = mergeEmit(pj.st, sources, e.cfg.DropTombstones, e.cfg.RetainSeq, func(k, v []byte) {
			if builder.Empty() {
				curFirst = append(curFirst[:0], k...)
			}
			builder.Add(k, v)
			if e.cfg.BloomBitsPerKey > 0 {
				curHashes = append(curHashes, bloom.Hash(ikey.UserKey(k)))
			}
			curLast = append(curLast[:0], k...)
			curEntries++
			if builder.SizeEstimate() >= e.cfg.BlockSize {
				flush()
			}
		})
		flush()
	})
	if merr != nil {
		return nil, fmt.Errorf("core: S4 subtask %d: %w", pj.st.Index, merr)
	}
	e.entriesIn.Add(seen)
	e.entriesOut.Add(emitted)
	dil.settle()
	return &builtJob{st: pj.st, outBlocks: outBlocks}, nil
}

// sealSubtask performs S5 (compress) and S6 (re-checksum), and splits the
// sealed blocks into output tables no larger than TableSize.
func (e *engine) sealSubtask(bj *builtJob, dil *dilation) (*writeJob, error) {
	// S5: compress the new blocks.
	compressed := make([][]byte, len(bj.outBlocks))
	e.computeTime(dil, S5Compress, func() {
		for i, b := range bj.outBlocks {
			compressed[i] = sstable.CompressBlock(nil, b.data, e.cfg.Codec)
		}
	})

	// S6: checksum the compressed blocks.
	sealed := make([]sealedBlock, len(bj.outBlocks))
	e.computeTime(dil, S6ReChecksum, func() {
		for i, b := range bj.outBlocks {
			sealed[i] = sealedBlock{
				first:    b.first,
				last:     b.last,
				physical: sstable.ChecksumBlock(compressed[i]),
				entries:  b.entries,
				hashes:   b.hashes,
			}
		}
	})
	dil.settle()

	wj := &writeJob{}
	var cur sealedTable
	for _, sb := range sealed {
		if cur.bytes > 0 && cur.bytes+int64(len(sb.physical)) > e.cfg.TableSize {
			wj.tables = append(wj.tables, cur)
			cur = sealedTable{}
		}
		cur.blocks = append(cur.blocks, sb)
		cur.bytes += int64(len(sb.physical))
	}
	if len(cur.blocks) > 0 {
		wj.tables = append(wj.tables, cur)
	}
	return wj, nil
}

// computeSubtask performs S2–S6 for one sub-task (the 3-stage pipeline's
// whole compute stage, per the paper's §III-B argument for not splitting
// it further).
func (e *engine) computeSubtask(job *rawJob, dil *dilation) (*writeJob, error) {
	pj, err := e.verifyDecompress(job, dil)
	if err != nil {
		return nil, err
	}
	bj, err := e.mergeBuild(pj, dil)
	if err != nil {
		return nil, err
	}
	return e.sealSubtask(bj, dil)
}

// writeSubtask performs S7: land every output table of the sub-task.
func (e *engine) writeSubtask(wj *writeJob) error {
	for _, tbl := range wj.tables {
		name, rawFile, err := e.sink()
		if err != nil {
			return fmt.Errorf("core: S7 creating output: %w", err)
		}
		// Coalesce block writes into large requests, as a buffered file
		// (or the page cache) would; the device then sees sub-task-sized
		// writes, matching the paper's S7 I/O granularity. A table is at
		// most about TableSize, so a larger buffer would never fill.
		f := storage.NewBufferedFile(rawFile, int(min(e.cfg.SubtaskSize, e.cfg.TableSize)))
		var meta sstable.TableMeta
		var werr error
		e.clock.time(S7Write, func() {
			w := sstable.NewRawWriter(f, ikey.Compare)
			w.FilterBitsPerKey = e.cfg.BloomBitsPerKey
			for _, sb := range tbl.blocks {
				if werr = w.AddSealedBlock(sb.first, sb.last, sb.physical, sb.entries); werr != nil {
					return
				}
				w.AddFilterHashes(sb.hashes)
			}
			meta, werr = w.Finish()
		})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("core: S7 writing %s: %w", name, werr)
		}
		e.outputBytes.Add(meta.FileSize)
		e.outMu.Lock()
		e.outputs = append(e.outputs, Output{Name: name, Meta: meta})
		e.outMu.Unlock()
	}
	return nil
}
