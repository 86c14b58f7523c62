package lsm

import (
	"testing"
	"time"
)

// balancedSample and writePressureSample are canonical window entries for
// the two verdicts.
func balancedSample() tunerSample {
	return tunerSample{FlushBytes: 1 << 20}
}

func writePressureSample() tunerSample {
	return tunerSample{
		FlushBytes:       1 << 20,
		CompactionOutput: 4 << 20, // amp (1+4)/1 = 5 ≥ lazyWriteAmpThreshold
		StallCount:       1,
	}
}

// TestTunerVerdicts pins the classifier on aggregated windows.
func TestTunerVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		sample tunerSample
		want   string
	}{
		{"balanced", balancedSample(), PolicyLeveling},
		{"write-pressure-high-amp", writePressureSample(), PolicyLazyLeveling},
		{"stalls-but-low-amp", tunerSample{
			FlushBytes: 1 << 20, CompactionOutput: 1 << 20, StallCount: 3,
		}, PolicyLeveling}, // amp 2.0 < 2.5: stalls alone don't escalate
		{"high-amp-no-pressure", tunerSample{
			FlushBytes: 1 << 20, CompactionOutput: 4 << 20,
		}, PolicyLeveling}, // amp without stalls/denials/retries is healthy throughput
		{"retries-and-amp", tunerSample{
			FlushBytes: 1 << 20, CompactionOutput: 4 << 20, BackgroundRetries: 1,
		}, PolicyLazyLeveling},
		{"denials-and-amp", tunerSample{
			FlushBytes: 1 << 20, CompactionOutput: 4 << 20, GovernorDenials: 2,
		}, PolicyLazyLeveling},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tu := newPolicyTuner(PolicyLeveling, 4)
			tu.window[0], tu.window[1] = tc.sample, tc.sample
			tu.filled = 2
			if got := tu.evaluate(); got != tc.want {
				t.Fatalf("evaluate() = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestTunerHysteresis: a verdict must repeat on consecutive evaluations
// before the tuner switches, and an evaluation that re-confirms the
// current policy clears any pending confirmation count.
func TestTunerHysteresis(t *testing.T) {
	tu := newPolicyTuner(PolicyLeveling, 2)

	// First two samples fill the window; evaluation starts at the second.
	if got := tu.observe(writePressureSample()); got != PolicyLeveling {
		t.Fatalf("before min samples: %s", got)
	}
	// Second sample: first write-pressure verdict → pending, not yet switched.
	if got := tu.observe(writePressureSample()); got != PolicyLeveling {
		t.Fatalf("single confirmation switched early to %s", got)
	}
	// Third: second consecutive verdict → switch.
	if got := tu.observe(writePressureSample()); got != PolicyLazyLeveling {
		t.Fatalf("after %d confirmations: %s, want %s", tunerConfirmations, got, PolicyLazyLeveling)
	}

	// An evaluation that re-confirms the current policy clears any pending
	// verdict: the confirmation count restarts from scratch afterwards.
	tu.pending, tu.pendingN = PolicyLeveling, tunerConfirmations-1
	if got := tu.observe(writePressureSample()); got != PolicyLazyLeveling {
		t.Fatalf("current-policy window flipped to %s", got)
	}
	if tu.pending != "" || tu.pendingN != 0 {
		t.Fatalf("pending verdict not cleared: %q ×%d", tu.pending, tu.pendingN)
	}
}

// TestTunerWindowSlides: old samples age out of the ring, so a sustained
// new phase flips the verdict even after a long prior phase, in either
// direction.
func TestTunerWindowSlides(t *testing.T) {
	tu := newPolicyTuner(PolicyLeveling, 3)
	for i := 0; i < 10; i++ {
		tu.observe(balancedSample())
	}
	if tu.current != PolicyLeveling {
		t.Fatalf("balanced phase: %s", tu.current)
	}
	got := tu.current
	for i := 0; i < 6; i++ {
		got = tu.observe(writePressureSample())
	}
	if got != PolicyLazyLeveling {
		t.Fatalf("sustained write-pressure phase: %s, want %s", got, PolicyLazyLeveling)
	}
	for i := 0; i < 6; i++ {
		got = tu.observe(balancedSample())
	}
	if got != PolicyLeveling {
		t.Fatalf("sustained balanced phase after pressure: %s, want %s", got, PolicyLeveling)
	}
}

// TestDeltaSample pins the Stats-to-sample subtraction.
func TestDeltaSample(t *testing.T) {
	prev := Stats{Puts: 10, Deletes: 5, Gets: 100, FlushBytes: 1000,
		CompactionInputBytes: 2000, CompactionOutputBytes: 3000,
		StallCount: 1, StallTime: time.Second, BackgroundRetries: 2, GovernorDenials: 3}
	cur := Stats{Puts: 30, Deletes: 10, Gets: 400, FlushBytes: 1500,
		CompactionInputBytes: 2600, CompactionOutputBytes: 3700,
		StallCount: 2, StallTime: 3 * time.Second, BackgroundRetries: 2, GovernorDenials: 7}
	d := deltaSample(prev, cur)
	want := tunerSample{FlushBytes: 500,
		CompactionInput: 600, CompactionOutput: 700,
		StallCount: 1, StallTime: 2 * time.Second, BackgroundRetries: 0, GovernorDenials: 4}
	if d != want {
		t.Fatalf("deltaSample = %+v, want %+v", d, want)
	}
}
