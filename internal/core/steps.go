// Package core implements the paper's contribution: the compaction
// procedures. A compaction merges the key-value entries of overlapping
// tables from adjacent components through seven steps per data block
// (paper §II-A):
//
//	S1 READ        — load physical blocks from the device
//	S2 CHECKSUM    — verify block integrity
//	S3 DECOMPRESS  — restore the key-value entries
//	S4 SORT        — merge entries and build new blocks
//	S5 COMPRESS    — compress the new blocks
//	S6 RE-CHECKSUM — checksum the compressed blocks
//	S7 WRITE       — land the blocks in output tables
//
// The Sequential Compaction Procedure (SCP) runs sub-tasks one after
// another, each executing S1…S7 in order, so the device idles during
// S2–S6 and the CPU idles during S1/S7 (paper Figure 3). The Pipelined
// Compaction Procedure (PCP) splits the work into three stages — read (S1),
// compute (S2–S6), write (S7) — connected by bounded queues, and runs the
// stages concurrently over independent sub-key-range sub-tasks (Figure 4).
// C-PPCP widens the compute stage over k workers (Figure 7(b)); S-PPCP
// widens the I/O stages over k workers/devices (Figure 7(a)).
package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Step identifies one of the paper's seven compaction steps.
type Step int

// The seven steps. Values are 1-based to match the paper's numbering.
const (
	S1Read Step = 1 + iota
	S2Checksum
	S3Decompress
	S4Sort
	S5Compress
	S6ReChecksum
	S7Write
	numSteps = 7
)

// String returns the paper's name for the step.
func (s Step) String() string {
	switch s {
	case S1Read:
		return "read"
	case S2Checksum:
		return "crc"
	case S3Decompress:
		return "decomp"
	case S4Sort:
		return "sort"
	case S5Compress:
		return "comp"
	case S6ReChecksum:
		return "re-crc"
	case S7Write:
		return "write"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// stepClock accumulates per-step durations from concurrent workers: wall
// time around the I/O steps S1 and S7, and for the compute steps S2–S6 the
// thread CPU time, dilated under Config.CPUDilation (engine.computeTime).
type stepClock struct {
	ns [numSteps + 1]atomic.Int64
}

// add charges d to step s.
func (c *stepClock) add(s Step, d time.Duration) {
	c.ns[s].Add(int64(d))
}

// time runs f and charges its duration to step s.
func (c *stepClock) time(s Step, f func()) {
	start := time.Now()
	f()
	c.add(s, time.Since(start))
}

// snapshot copies the accumulated durations.
func (c *stepClock) snapshot() StepTimes {
	var st StepTimes
	for i := 1; i <= numSteps; i++ {
		st[i] = time.Duration(c.ns[i].Load())
	}
	return st
}

// StepTimes holds a duration per step, indexed by Step (index 0 unused).
type StepTimes [numSteps + 1]time.Duration

// Get returns the duration of step s.
func (st StepTimes) Get(s Step) time.Duration { return st[s] }

// Total returns the sum over all seven steps — the denominator of the
// paper's Equation 1.
func (st StepTimes) Total() time.Duration {
	var t time.Duration
	for i := 1; i <= numSteps; i++ {
		t += st[i]
	}
	return t
}

// ReadTime returns t_S1.
func (st StepTimes) ReadTime() time.Duration { return st[S1Read] }

// ComputeTime returns the sum of t_S2…t_S6.
func (st StepTimes) ComputeTime() time.Duration {
	return st[S2Checksum] + st[S3Decompress] + st[S4Sort] + st[S5Compress] + st[S6ReChecksum]
}

// WriteTime returns t_S7.
func (st StepTimes) WriteTime() time.Duration { return st[S7Write] }

// Breakdown returns the three-way split the paper's Figures 5, 8 and 9 plot.
func (st StepTimes) Breakdown() Breakdown {
	return Breakdown{Read: st.ReadTime(), Compute: st.ComputeTime(), Write: st.WriteTime()}
}

// Breakdown is the read/compute/write decomposition of compaction time.
type Breakdown struct {
	Read, Compute, Write time.Duration
}

// Total returns the breakdown sum.
func (b Breakdown) Total() time.Duration { return b.Read + b.Compute + b.Write }

// Fractions returns each part as a fraction of the total (zeros if empty).
func (b Breakdown) Fractions() (read, compute, write float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(b.Read) / t, float64(b.Compute) / t, float64(b.Write) / t
}

// String renders percentages, e.g. "read 42.0% compute 39.5% write 18.5%".
func (b Breakdown) String() string {
	r, c, w := b.Fractions()
	return fmt.Sprintf("read %.1f%% compute %.1f%% write %.1f%%", r*100, c*100, w*100)
}

// Stats aggregates everything measured during one compaction.
type Stats struct {
	// Mode is the procedure that ran.
	Mode Mode
	// Steps holds the per-step time sums: device (wall) time for S1 and
	// S7, thread CPU time for S2–S6.
	Steps StepTimes
	// Wall is the end-to-end compaction duration.
	Wall time.Duration
	// StageBusy is the busy (non-waiting) wall time of the read, compute
	// and write stages; for SCP the read and write stages equal S1 and S7.
	StageBusy struct {
		Read, Compute, Write time.Duration
	}
	// Pipeline reports the pipeline's shape and dynamics under ModePCP:
	// worker counts, governor resizes, queue high-water marks, and per-stage
	// idle time. Zero-valued under the other modes.
	Pipeline PipelineStats
	// Subtasks is the number of sub-tasks the key range was partitioned into.
	Subtasks int
	// InputTables/OutputTables count tables consumed and produced.
	InputTables  int
	OutputTables int
	// InputBytes is the physical bytes S1 fetched from the input files.
	// Each input block counts once: a block spanning a sub-task boundary
	// comes from its input's cursor the second time. Only an S-PPCP reader
	// that runs ahead of its neighbour fetches (and counts) one again.
	// OutputBytes is the bytes S7 wrote.
	InputBytes  int64
	OutputBytes int64
	// EntriesIn/EntriesOut/EntriesDropped count key-value entries.
	EntriesIn      int64
	EntriesOut     int64
	EntriesDropped int64
}

// Bandwidth returns the paper's compaction-bandwidth metric: the amount of
// data compacted per unit time, in bytes per second.
func (s Stats) Bandwidth() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.InputBytes) / s.Wall.Seconds()
}

// String summarizes the stats for experiment logs.
func (s Stats) String() string {
	return fmt.Sprintf("%d subtasks, %d→%d tables, %.2f MiB in, %.2f MiB out, %.1f MiB/s, %v [%v]",
		s.Subtasks, s.InputTables, s.OutputTables,
		float64(s.InputBytes)/(1<<20), float64(s.OutputBytes)/(1<<20),
		s.Bandwidth()/(1<<20), s.Wall.Round(time.Millisecond), s.Steps.Breakdown())
}
