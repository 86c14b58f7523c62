package harness

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// scrubSeedBase lets CI shift the seed matrix without editing the test.
func scrubSeedBase(t *testing.T) int64 {
	if s := os.Getenv("PCPLSM_SCRUB_SEED_BASE"); s != "" {
		base, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PCPLSM_SCRUB_SEED_BASE %q: %v", s, err)
		}
		return base
	}
	return 1
}

// TestScrubCycles is the integrity acceptance gate: seeded at-rest bit-rot
// cycles, each verifying that the background scrubber detects the rot
// within one pass, quarantines only the damaged table, the quarantine
// survives reopen, and ParanoidChecks rejects
// silently garbled pipeline outputs before the manifest references them.
// Cycles are sharded into parallel subtests so -race runs stay within test
// timeouts.
func TestScrubCycles(t *testing.T) {
	cycles := 12
	if testing.Short() {
		cycles = 4
	}
	base := scrubSeedBase(t)
	const shard = 4
	for lo := 0; lo < cycles; lo += shard {
		lo := lo
		n := shard
		if lo+n > cycles {
			n = cycles - lo
		}
		t.Run(fmt.Sprintf("seeds%d-%d", lo, lo+n-1), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				seed := base + int64(lo+i)
				res, err := RunScrubCycle(ScrubConfig{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.ParanoidRejections < 2 {
					t.Fatalf("seed %d: ParanoidRejections = %d, want >= 2", seed, res.ParanoidRejections)
				}
			}
		})
	}
}
