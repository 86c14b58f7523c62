package lsm

import (
	"sync"

	"pcplsm/internal/core"
)

// Pipeline governor: engine-wide budgets for the stage workers of pipelined
// background work. Every PCP compaction runs extra goroutines beyond its
// scheduler slot — without a shared budget, BackgroundWorkers ×
// ComputeParallel compute workers could oversubscribe the host and steal
// CPU from foreground reads and commits.
//
// The governor keeps two token pools:
//
//   - compute tokens, sized from GOMAXPROCS minus foreground headroom —
//     one token per concurrently-running compute-stage worker;
//   - I/O tokens — one token per unit of IOParallel (a read+write worker
//     pair), bounding concurrent request streams at the device.
//
// A background unit acquires a lease when the scheduler claims it and
// releases the lease with the claim. The baseline of one compute and one
// I/O token is always granted, even if that overcommits the pool — a
// claimed unit must be able to run, and on a 1-CPU host the alternative is
// deadlock. Only width beyond the baseline is gated on availability, so
// extras can never oversubscribe: leased > total happens only via
// baselines, and Stats' leased-vs-total pool sizes make the debt visible.
//
// Mid-run, the adaptive pilot (adaptivePilot below) implements
// core.PipelineGovernor on top of a lease: between sub-tasks it classifies
// the compaction as compute- or I/O-bound from stage busy clocks and queue
// occupancy, and grows or shrinks the pipeline within the leased budget,
// returning tokens it no longer needs.

// pipelineGovernor is the engine-wide token pool pair.
type pipelineGovernor struct {
	mu            sync.Mutex
	computeTotal  int
	ioTotal       int
	computeLeased int
	ioLeased      int
}

func newPipelineGovernor(computeTokens, ioTokens int) *pipelineGovernor {
	return &pipelineGovernor{computeTotal: computeTokens, ioTotal: ioTokens}
}

// pipelineLease is one background unit's slice of the pools.
type pipelineLease struct {
	g       *pipelineGovernor
	mu      sync.Mutex
	compute int
	io      int
}

// acquire grants a lease: a baseline of 1+1 unconditionally, plus up to
// wantCompute-1 / wantIO-1 extra tokens while the pools have headroom.
func (g *pipelineGovernor) acquire(wantCompute, wantIO int) *pipelineLease {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := &pipelineLease{g: g, compute: 1, io: 1}
	g.computeLeased++
	g.ioLeased++
	for l.compute < wantCompute && g.computeLeased < g.computeTotal {
		l.compute++
		g.computeLeased++
	}
	for l.io < wantIO && g.ioLeased < g.ioTotal {
		l.io++
		g.ioLeased++
	}
	return l
}

// release returns every token the lease still holds. Safe to call once.
func (l *pipelineLease) release() {
	l.mu.Lock()
	compute, io := l.compute, l.io
	l.compute, l.io = 0, 0
	l.mu.Unlock()
	l.g.mu.Lock()
	l.g.computeLeased -= compute
	l.g.ioLeased -= io
	l.g.mu.Unlock()
}

// tryGrowCompute leases one more compute token if the pool has headroom.
func (l *pipelineLease) tryGrowCompute() bool {
	l.g.mu.Lock()
	defer l.g.mu.Unlock()
	if l.g.computeLeased >= l.g.computeTotal {
		return false
	}
	l.g.computeLeased++
	l.mu.Lock()
	l.compute++
	l.mu.Unlock()
	return true
}

// tryGrowIO leases one more I/O token if the pool has headroom.
func (l *pipelineLease) tryGrowIO() bool {
	l.g.mu.Lock()
	defer l.g.mu.Unlock()
	if l.g.ioLeased >= l.g.ioTotal {
		return false
	}
	l.g.ioLeased++
	l.mu.Lock()
	l.io++
	l.mu.Unlock()
	return true
}

// shrinkCompute returns one compute token (never the baseline).
func (l *pipelineLease) shrinkCompute() {
	l.mu.Lock()
	if l.compute <= 1 {
		l.mu.Unlock()
		return
	}
	l.compute--
	l.mu.Unlock()
	l.g.mu.Lock()
	l.g.computeLeased--
	l.g.mu.Unlock()
}

// widths returns the lease's current token counts.
func (l *pipelineLease) widths() (compute, io int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compute, l.io
}

// tryLeaseIO leases a single I/O token with no baseline overcommit. Unlike
// acquire, a denial is possible: the background scrubber uses this so its
// verification reads always yield to compaction I/O — a scrub
// pass is never urgent enough to oversubscribe the device.
func (g *pipelineGovernor) tryLeaseIO() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ioLeased >= g.ioTotal {
		return false
	}
	g.ioLeased++
	return true
}

// returnIO gives back a token taken with tryLeaseIO.
func (g *pipelineGovernor) returnIO() {
	g.mu.Lock()
	g.ioLeased--
	g.mu.Unlock()
}

// snapshot reads the pool state for Stats().
func (g *pipelineGovernor) snapshot() (computeTotal, ioTotal, computeLeased, ioLeased int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.computeTotal, g.ioTotal, g.computeLeased, g.ioLeased
}

// adaptivePilot steers one compaction's pipeline within its lease. It is
// handed to core.Run as the Config.Governor; core calls Adjust between
// sub-tasks, never concurrently.
//
// Classification: a full read→compute queue means readers outrun compute
// (compute-bound — widen compute); an empty one with the read stage's busy
// clock dominating means compute starves on input (I/O-bound — widen I/O);
// a full compute→write queue means the write stage is the choke (also
// I/O-bound). When compute idles on an empty queue while I/O dominates,
// the pilot gives a compute worker — and its token — back, so a burst of
// compute-bound sub-tasks doesn't pin tokens for the rest of the run. I/O
// width is never shrunk: a full compute queue with an empty write queue is
// already the compute-bound case above.
type adaptivePilot struct {
	lease *pipelineLease
	stats *statsCollector

	lastActed int // SubtasksDone when the pilot last acted (hysteresis)
}

// adjustEvery is the minimum number of completed sub-tasks between pilot
// actions: enough for the busy clocks and queues to reflect the last resize.
const adjustEvery = 2

func (a *adaptivePilot) Adjust(t core.PipelineTelemetry) core.PipelineResize {
	r := core.PipelineResize{Compute: t.ComputeWorkers, IO: t.IOWorkers}
	if t.SubtasksDone < adjustEvery || t.SubtasksDone-a.lastActed < adjustEvery {
		return r
	}
	compFull := t.ComputeQueueCap > 0 && t.ComputeQueue >= t.ComputeQueueCap
	compEmpty := t.ComputeQueue == 0
	writeFull := t.WriteQueueCap > 0 && t.WriteQueue >= t.WriteQueueCap
	b := t.StageBusy
	switch {
	case compFull && !writeFull:
		// Readers are parked on a full compute queue: compute-bound.
		if a.lease.tryGrowCompute() {
			r.Compute++
			a.stats.update(func(s *Stats) { s.GovernorGrows++ })
		} else {
			a.stats.update(func(s *Stats) { s.GovernorDenials++ })
		}
		a.lastActed = t.SubtasksDone
	case writeFull || (compEmpty && b.Read > b.Compute+b.Write):
		// Writers backed up, or compute starved behind slow reads: I/O-bound.
		if a.lease.tryGrowIO() {
			r.IO++
			a.stats.update(func(s *Stats) { s.GovernorGrows++ })
		} else {
			a.stats.update(func(s *Stats) { s.GovernorDenials++ })
		}
		a.lastActed = t.SubtasksDone
	case compEmpty && t.ComputeWorkers > 1 && b.Compute < b.Read+b.Write:
		// Compute overprovisioned: idle workers, I/O dominates. Hand the
		// token back so a sibling compaction can use it.
		a.lease.shrinkCompute()
		r.Compute--
		a.stats.update(func(s *Stats) { s.GovernorShrinks++ })
		a.lastActed = t.SubtasksDone
	}
	return r
}
