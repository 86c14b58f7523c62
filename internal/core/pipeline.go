package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements ModePCP with resizable stages. The fixed-width
// pipeline of the paper's Figure 4 is the special case where no Governor is
// configured: ComputeParallel and IOParallel workers are started and keep
// running until the sub-task stream drains. With a Governor, the worker sets
// become elastic — between sub-tasks the governor inspects queue occupancy
// and the per-stage busy clocks and steers the widths, so a compaction that
// turns out compute-bound can widen into C-PPCP mid-run and give the width
// back when the balance shifts.
//
// Correctness under resize: stage completion is tracked by per-stage done
// counters against the total sub-task count, not by worker WaitGroups — the
// compute queue closes when all reads are done and the write queue when all
// computes are done, regardless of how many workers are alive at that
// moment. Retirement is lazy (a worker checks for a pending retire quota
// between jobs), and each stage keeps at least one worker until its input
// channel closes, so the pipeline can never strand a queued sub-task.

// maxStageWorkers bounds any single stage's width regardless of what a
// governor asks for.
const maxStageWorkers = 64

// PipelineTelemetry is the point-in-time snapshot handed to a
// PipelineGovernor between sub-tasks.
type PipelineTelemetry struct {
	// Subtasks is the run's total sub-task count; SubtasksDone the number
	// whose compute stage has finished.
	Subtasks     int
	SubtasksDone int
	// ComputeWorkers and IOWorkers are the stage widths last set by init or
	// a resize, whether or not a drained stage's workers have exited
	// (IOWorkers covers the read stage; the write stage mirrors it).
	ComputeWorkers int
	IOWorkers      int
	// StageBusy is the busy time accumulated so far by each stage.
	StageBusy Breakdown
	// Queue occupancy: jobs buffered between read→compute and
	// compute→write, against each queue's capacity. A full compute queue
	// means readers outrun compute; an empty one means compute is starved.
	ComputeQueue    int
	ComputeQueueCap int
	WriteQueue      int
	WriteQueueCap   int
}

// PipelineResize is a governor verdict: the desired stage widths. The
// engine clamps both to [1, 64]; returning the current widths unchanged
// leaves the pipeline alone.
type PipelineResize struct {
	Compute int
	IO      int
}

// PipelineGovernor observes a ModePCP run and resizes its stages mid-run.
// Adjust is called from pipeline workers after each sub-task's compute
// stage completes — never concurrently — and must not block: a slow
// governor stalls the stage that called it.
type PipelineGovernor interface {
	Adjust(t PipelineTelemetry) PipelineResize
}

// PipelineStats reports a ModePCP run's shape and dynamics.
type PipelineStats struct {
	// InitialComputeWorkers/InitialIOWorkers are the starting widths;
	// Max* the high-water marks of running workers; Final* the set widths
	// when the run drained.
	InitialComputeWorkers int
	InitialIOWorkers      int
	MaxComputeWorkers     int
	MaxIOWorkers          int
	FinalComputeWorkers   int
	FinalIOWorkers        int
	// Grows/Shrinks count applied governor resizes (one per stage whose
	// width actually changed).
	Grows   int64
	Shrinks int64
	// ComputeQueueHighWater/WriteQueueHighWater are the deepest the
	// inter-stage queues got.
	ComputeQueueHighWater int
	WriteQueueHighWater   int
	// StageIdle is each stage's summed worker lifetime minus its busy time:
	// the time stage workers spent waiting on queues. Attributing stall to
	// a stage means looking at which stage is busy while the others idle.
	StageIdle Breakdown
}

// pcpStage tracks one resizable worker set. The mutex covers resize
// decisions; workers only touch it once per job, between sub-tasks.
type pcpStage struct {
	mu     sync.Mutex
	target int // width set by init and resize: what the stage reports
	live   int // running workers
	quota  int // workers asked to retire but not yet exited
	max    int // high-water mark of live

	lifeNs atomic.Int64 // summed worker lifetimes, for idle accounting
}

func (s *pcpStage) init(n int) {
	s.target, s.live, s.max = n, n, n
}

// width is the stage's set worker count. Workers that exit because their
// input drained do not lower it: a read stage that finished while compute
// and write still hold sub-tasks keeps reporting the width it was given,
// so the governor never reads a drained stage as one to grow.
func (s *pcpStage) width() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// resize steers the stage toward n workers. Pending retirements are
// cancelled before new workers spawn; shrinking only queues retire quota —
// workers leave lazily at their next job boundary. Returns whether the
// set width changed.
func (s *pcpStage) resize(n int, spawn func()) (changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == s.target {
		return false
	}
	if n < s.target {
		s.quota += s.target - n
		s.target = n
		return true
	}
	d := n - s.target
	s.target = n
	if cancel := min(d, s.quota); cancel > 0 {
		s.quota -= cancel
		d -= cancel
	}
	for i := 0; i < d; i++ {
		s.live++
		spawn()
	}
	if s.live > s.max {
		s.max = s.live
	}
	return true
}

// tryRetire reports whether the calling worker should exit to satisfy a
// shrink. The last worker of a stage never retires.
func (s *pcpStage) tryRetire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quota > 0 && s.live > 1 {
		s.quota--
		s.live--
		return true
	}
	if s.quota > 0 {
		// Can't shrink a one-worker stage; drop the stale quota so a later
		// grow doesn't silently cancel against it.
		s.quota = 0
	}
	return false
}

// exited records a worker leaving because its input channel drained. It
// changes only the live count, never the set width.
func (s *pcpStage) exited() {
	s.mu.Lock()
	s.live--
	s.mu.Unlock()
}

// pcpPipe is the shared state of one resizable 3-stage pipeline run.
type pcpPipe struct {
	subCh   chan *Subtask
	compCh  chan *rawJob
	writeCh chan *writeJob

	total int64 // sub-task count

	readsDone    atomic.Int64
	computesDone atomic.Int64

	compQ, writeQ     atomic.Int64 // current queue occupancy
	compQHW, writeQHW atomic.Int64 // queue high-water marks

	read, compute, write pcpStage

	initialCompute, initialIO int
	finalCompute, finalIO     int

	compClose, writeClose sync.Once

	// adjustMu serializes governor calls so Adjust never runs concurrently.
	adjustMu       sync.Mutex
	grows, shrinks atomic.Int64

	wg sync.WaitGroup
}

func hwRatchet(hw *atomic.Int64, v int64) {
	for {
		cur := hw.Load()
		if v <= cur || hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (p *pcpPipe) closeComp()  { p.compClose.Do(func() { close(p.compCh) }) }
func (p *pcpPipe) closeWrite() { p.writeClose.Do(func() { close(p.writeCh) }) }

// stats snapshots the pipeline's observability block after the run drained.
func (p *pcpPipe) stats(busy Breakdown) PipelineStats {
	idle := func(life *atomic.Int64, b time.Duration) time.Duration {
		d := time.Duration(life.Load()) - b
		if d < 0 {
			d = 0
		}
		return d
	}
	return PipelineStats{
		InitialComputeWorkers: p.initialCompute,
		InitialIOWorkers:      p.initialIO,
		MaxComputeWorkers:     p.compute.max,
		MaxIOWorkers:          p.read.max,
		FinalComputeWorkers:   p.finalCompute,
		FinalIOWorkers:        p.finalIO,
		Grows:                 p.grows.Load(),
		Shrinks:               p.shrinks.Load(),
		ComputeQueueHighWater: int(p.compQHW.Load()),
		WriteQueueHighWater:   int(p.writeQHW.Load()),
		StageIdle: Breakdown{
			Read:    idle(&p.read.lifeNs, busy.Read),
			Compute: idle(&p.compute.lifeNs, busy.Compute),
			Write:   idle(&p.write.lifeNs, busy.Write),
		},
	}
}

// runPipelined is PCP/PPCP: three stages over bounded queues, with
// governor-driven mid-run resizing when Config.Governor is set.
func (e *engine) runPipelined(subtasks []Subtask) {
	if len(subtasks) == 0 {
		return
	}
	p := &pcpPipe{
		subCh:          make(chan *Subtask, queueDepth),
		compCh:         make(chan *rawJob, queueDepth),
		writeCh:        make(chan *writeJob, queueDepth),
		total:          int64(len(subtasks)),
		initialCompute: e.cfg.ComputeParallel,
		initialIO:      e.cfg.IOParallel,
	}
	e.pipe = p
	p.read.init(e.cfg.IOParallel)
	p.write.init(e.cfg.IOParallel)
	p.compute.init(e.cfg.ComputeParallel)
	for w := 0; w < e.cfg.IOParallel; w++ {
		p.wg.Add(2)
		go e.readWorker(p)
		go e.writeWorker(p)
	}
	for w := 0; w < e.cfg.ComputeParallel; w++ {
		p.wg.Add(1)
		go e.computeWorker(p)
	}

	go func() {
		defer close(p.subCh)
		for i := range subtasks {
			select {
			case p.subCh <- &subtasks[i]:
			case <-e.cancel:
				return
			}
		}
	}()

	p.wg.Wait()
	p.finalCompute = p.compute.width()
	p.finalIO = p.read.width()
}

// readWorker runs the read stage (S1) for sub-tasks until the stream drains,
// the run cancels, or the governor retires it.
func (e *engine) readWorker(p *pcpPipe) {
	t0 := time.Now()
	retired := false
	defer func() {
		p.read.lifeNs.Add(int64(time.Since(t0)))
		if !retired {
			p.read.exited()
		}
		p.wg.Done()
	}()
	for {
		if p.read.tryRetire() {
			retired = true
			return
		}
		select {
		case st, ok := <-p.subCh:
			if !ok {
				return
			}
			if e.canceled() {
				continue
			}
			begin := time.Now()
			job, err := e.readSubtask(st)
			e.busyRead.Add(int64(time.Since(begin)))
			if err != nil {
				e.fail(err)
				continue
			}
			select {
			case p.compCh <- job:
				hwRatchet(&p.compQHW, p.compQ.Add(1))
			case <-e.cancel:
				continue
			}
			if p.readsDone.Add(1) == p.total {
				p.closeComp()
			}
		case <-e.cancel:
			return
		}
	}
}

// computeWorker runs the compute stage (S2–S6). After each sub-task it gives
// the governor a chance to resize the pipeline.
func (e *engine) computeWorker(p *pcpPipe) {
	t0 := time.Now()
	retired := false
	defer func() {
		p.compute.lifeNs.Add(int64(time.Since(t0)))
		if !retired {
			p.compute.exited()
		}
		p.wg.Done()
	}()
	var dil dilation
	for {
		if p.compute.tryRetire() {
			retired = true
			return
		}
		select {
		case job, ok := <-p.compCh:
			if !ok {
				return
			}
			p.compQ.Add(-1)
			if e.canceled() {
				continue
			}
			begin := time.Now()
			wj, err := e.computeSubtask(job, &dil)
			e.busyCompute.Add(int64(time.Since(begin)))
			if err != nil {
				e.fail(err)
				continue
			}
			select {
			case p.writeCh <- wj:
				hwRatchet(&p.writeQHW, p.writeQ.Add(1))
			case <-e.cancel:
				continue
			}
			done := p.computesDone.Add(1)
			e.maybeAdjust(p, int(done))
			if done == p.total {
				p.closeWrite()
			}
		case <-e.cancel:
			return
		}
	}
}

// writeWorker runs the write stage (S7).
func (e *engine) writeWorker(p *pcpPipe) {
	t0 := time.Now()
	retired := false
	defer func() {
		p.write.lifeNs.Add(int64(time.Since(t0)))
		if !retired {
			p.write.exited()
		}
		p.wg.Done()
	}()
	for {
		if p.write.tryRetire() {
			retired = true
			return
		}
		select {
		case wj, ok := <-p.writeCh:
			if !ok {
				return
			}
			p.writeQ.Add(-1)
			if e.canceled() {
				continue
			}
			begin := time.Now()
			err := e.writeSubtask(wj)
			e.busyWrite.Add(int64(time.Since(begin)))
			if err != nil {
				e.fail(err)
			}
		case <-e.cancel:
			return
		}
	}
}

// maybeAdjust consults the governor after a finished sub-task and applies
// its verdict. Spawning happens from inside a live worker (the caller), so
// the WaitGroup counter is never observed at zero mid-run.
func (e *engine) maybeAdjust(p *pcpPipe, done int) {
	if e.cfg.Governor == nil || int64(done) >= p.total || e.canceled() {
		return
	}
	p.adjustMu.Lock()
	defer p.adjustMu.Unlock()
	t := PipelineTelemetry{
		Subtasks:       int(p.total),
		SubtasksDone:   done,
		ComputeWorkers: p.compute.width(),
		IOWorkers:      p.read.width(),
		StageBusy: Breakdown{
			Read:    time.Duration(e.busyRead.Load()),
			Compute: time.Duration(e.busyCompute.Load()),
			Write:   time.Duration(e.busyWrite.Load()),
		},
		ComputeQueue:    int(p.compQ.Load()),
		ComputeQueueCap: cap(p.compCh),
		WriteQueue:      int(p.writeQ.Load()),
		WriteQueueCap:   cap(p.writeCh),
	}
	r := e.cfg.Governor.Adjust(t)
	comp := clampWorkers(r.Compute)
	io := clampWorkers(r.IO)
	if comp != t.ComputeWorkers {
		if comp > t.ComputeWorkers {
			p.grows.Add(1)
		} else {
			p.shrinks.Add(1)
		}
		p.compute.resize(comp, func() {
			p.wg.Add(1)
			go e.computeWorker(p)
		})
	}
	if io != t.IOWorkers {
		if io > t.IOWorkers {
			p.grows.Add(1)
		} else {
			p.shrinks.Add(1)
		}
		p.read.resize(io, func() {
			p.wg.Add(1)
			go e.readWorker(p)
		})
		p.write.resize(io, func() {
			p.wg.Add(1)
			go e.writeWorker(p)
		})
	}
}

func clampWorkers(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxStageWorkers {
		return maxStageWorkers
	}
	return n
}
