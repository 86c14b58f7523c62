package lsm

// Self-tuning policy selection: the DB feeds the tuner one sample of
// metric deltas after every completed background unit (flush or
// compaction), and the tuner classifies the workload from a sliding
// window of those samples:
//
//   - write-pressured (stalls, governor denials, or background retries in
//     the window) with high write amplification → lazy-leveling, trading
//     read amplification for fewer, larger merges;
//   - anything else → leveling, the balanced default.
//
// A verdict must repeat on tunerConfirmations consecutive evaluations
// before the switch is applied (hysteresis), so one anomalous window
// cannot flap the policy. The tuner is pure state + arithmetic — no
// clocks, no goroutines — so tests drive it deterministically with
// scripted samples (see tuner_test.go) and the DB-level integration test
// scripts a workload shift through the same observe path the scheduler
// uses.

import "time"

// tunerSample is one window entry: deltas of the cumulative Stats
// counters since the previous sample.
type tunerSample struct {
	FlushBytes        int64
	CompactionInput   int64
	CompactionOutput  int64
	StallCount        int64
	StallTime         time.Duration
	BackgroundRetries int64
	GovernorDenials   int64
}

// deltaSample subtracts two cumulative Stats snapshots into one sample.
func deltaSample(prev, cur Stats) tunerSample {
	return tunerSample{
		FlushBytes:        cur.FlushBytes - prev.FlushBytes,
		CompactionInput:   cur.CompactionInputBytes - prev.CompactionInputBytes,
		CompactionOutput:  cur.CompactionOutputBytes - prev.CompactionOutputBytes,
		StallCount:        cur.StallCount - prev.StallCount,
		StallTime:         cur.StallTime - prev.StallTime,
		BackgroundRetries: cur.BackgroundRetries - prev.BackgroundRetries,
		GovernorDenials:   cur.GovernorDenials - prev.GovernorDenials,
	}
}

const (
	// tunerWindow is the sliding-window length in samples (one sample per
	// completed background unit).
	tunerWindow = 8
	// minTunerSamples gates the first evaluation: a single sample is too
	// little signal to leave the starting policy.
	minTunerSamples = 2
	// tunerConfirmations is the hysteresis: consecutive evaluations that
	// must agree before a switch is applied.
	tunerConfirmations = 2
	// lazyWriteAmpThreshold: the window's (flush+compaction output)/flush
	// byte ratio above which write pressure escalates to lazy-leveling.
	// 1.0 means compactions wrote nothing beyond the flushes themselves.
	lazyWriteAmpThreshold = 2.5
)

// policyTuner holds the sliding window and the hysteresis state. It is
// not self-synchronizing: the DB serializes observe calls under tunerMu.
type policyTuner struct {
	window []tunerSample // ring buffer
	next   int
	filled int

	current  string // policy the tuner currently wants active
	pending  string // candidate verdict awaiting confirmation
	pendingN int
}

// newPolicyTuner starts a tuner at policy start with a window of window
// samples (tunerWindow in the DB; at least minTunerSamples).
func newPolicyTuner(start string, window int) *policyTuner {
	return &policyTuner{window: make([]tunerSample, window), current: start}
}

// observe folds one sample into the window and returns the policy the
// tuner wants active (unchanged until a verdict survives hysteresis).
func (t *policyTuner) observe(s tunerSample) string {
	t.window[t.next] = s
	t.next = (t.next + 1) % len(t.window)
	if t.filled < len(t.window) {
		t.filled++
	}
	if t.filled < minTunerSamples {
		return t.current
	}
	verdict := t.evaluate()
	if verdict == t.current {
		t.pending, t.pendingN = "", 0
		return t.current
	}
	if verdict == t.pending {
		t.pendingN++
	} else {
		t.pending, t.pendingN = verdict, 1
	}
	if t.pendingN >= tunerConfirmations {
		t.current = verdict
		t.pending, t.pendingN = "", 0
	}
	return t.current
}

// evaluate classifies the aggregated window into a policy verdict.
func (t *policyTuner) evaluate() string {
	var agg tunerSample
	for i := 0; i < t.filled; i++ {
		s := t.window[i]
		agg.FlushBytes += s.FlushBytes
		agg.CompactionOutput += s.CompactionOutput
		agg.StallCount += s.StallCount
		agg.BackgroundRetries += s.BackgroundRetries
		agg.GovernorDenials += s.GovernorDenials
	}
	writePressure := agg.StallCount > 0 || agg.GovernorDenials > 0 || agg.BackgroundRetries > 0
	writeAmp := float64(agg.FlushBytes+agg.CompactionOutput) / float64(max(1, agg.FlushBytes))
	if writePressure && writeAmp >= lazyWriteAmpThreshold {
		return PolicyLazyLeveling
	}
	return PolicyLeveling
}
