package lsm

// Compaction policies: which compaction runs, as opposed to how it runs
// (the procedure — SCP vs the paper's pipelined PCP — configured in
// Options.Compaction). Sarkar et al.'s design-space analysis (PAPERS.md)
// factors a compaction strategy into orthogonal axes: the trigger (when a
// level is due), the data-layout posture (leveling vs tiering hybrids),
// the file-picking policy (which table of a due level moves), and the
// granularity shortcuts (trivial moves of non-overlapping tables). The
// CompactionPolicy interface captures exactly those axes; the DB consults
// the active policy on every scheduler pass and the self-tuner
// (tuner.go) may swap policies at runtime as the workload shifts.
//
// All policies operate on the same leveled on-disk invariants (levels ≥ 1
// sorted and disjoint), so the read path, the version-edit machinery, and
// the crash-recovery contract are policy-independent — a policy decides
// only *when* and *what*, never the merge semantics. This is what makes
// the policies interchangeable mid-run and byte-equivalent in read
// results (see TestPolicyEquivalenceRandomOps).

import (
	"fmt"
	"sort"

	"pcplsm/internal/cache"
	"pcplsm/internal/ikey"
)

// Policy names accepted by Options.CompactionPolicy.
const (
	// PolicyLeveling is the LevelDB-style default: compact the level with
	// the highest normalized fullness ratio, round-robin file picking.
	PolicyLeveling = "leveling"
	// PolicyLazyLeveling is a tiering posture at the upper levels: L0
	// accumulates more runs and the levels above the deepest populated one
	// tolerate a slack factor before compacting, concentrating merge work
	// at the tree's bottom. Fewer, larger merges — lower write
	// amplification at the cost of read amplification.
	PolicyLazyLeveling = "lazy-leveling"
	// PolicyColdestRange triggers like leveling but picks the table whose
	// key range is coldest per the block-cache heat map, so compactions
	// churn cold data and hot ranges keep their cached blocks.
	PolicyColdestRange = "coldest-range"
)

// CompactionPolicy decides which compaction to run: trigger scoring (is
// any level due, and which is most urgent) and input selection (which
// table of the due level moves). Pick is called
// with db.mu held on every scheduler pass; implementations must be cheap
// and must not retain env or v.
type CompactionPolicy interface {
	// Name returns the policy's Options.CompactionPolicy name.
	Name() string
	// Pick selects the next compaction, or nil when no unclaimed level is
	// over its threshold under this policy's triggers.
	Pick(env *policyEnv, v *Version) *pickedCompaction
}

// policyEnv is the picker's view of the engine, assembled once at Open
// and handed to every Pick call (under db.mu, so the cursor array and the
// claim state are stable for the duration of the call).
type policyEnv struct {
	opts   *Options
	free   func(level int) bool // levelPairFree: is the {L, L+1} pair unclaimed
	cursor *[NumLevels][]byte   // per-level round-robin compaction cursors
	heat   *cache.Heat          // nil without a block cache
	// quarantined reports whether a table failed integrity verification and
	// was isolated; the pickers skip such tables and refuse any pick whose
	// overlap would merge through one. Nil means "nothing quarantined".
	quarantined func(num uint64) bool
}

// isQuarantined is the nil-tolerant form of env.quarantined.
func (env *policyEnv) isQuarantined(num uint64) bool {
	return env.quarantined != nil && env.quarantined(num)
}

// newPolicy resolves a policy name to its implementation.
func newPolicy(name string) (CompactionPolicy, error) {
	switch name {
	case PolicyLeveling:
		return levelingPolicy{}, nil
	case PolicyLazyLeveling:
		return lazyLevelingPolicy{}, nil
	case PolicyColdestRange:
		return coldestRangePolicy{}, nil
	}
	return nil, fmt.Errorf("lsm: unknown compaction policy %q", name)
}

// policyIndex maps a policy name to the stable lsm_policy_active metric
// value (0 leveling, 1 lazy-leveling, 2 coldest-range).
func policyIndex(name string) int64 {
	switch name {
	case PolicyLazyLeveling:
		return 1
	case PolicyColdestRange:
		return 2
	default:
		return 0
	}
}

// levelScores returns each level's compaction urgency in commensurate
// units: every score is a dimensionless fullness ratio where 1.0 means
// exactly at trigger. L0's ratio is file-count based (every L0 run costs
// a read-path probe), deeper levels are size based — dividing each by its
// own trigger is what makes them comparable, fixing the old picker's
// incommensurate count-vs-bytes comparison.
func levelScores(opts *Options, v *Version) [NumLevels]float64 {
	var s [NumLevels]float64
	s[0] = float64(len(v.Levels[0])) / float64(opts.L0CompactionTrigger)
	for l := 1; l < NumLevels-1; l++ {
		s[l] = float64(v.LevelSize(l)) / float64(opts.maxLevelSize(l))
	}
	return s
}

// l0UrgentThreshold is the L0 file count at which L0 wins outright,
// regardless of deeper levels' fullness ratios: past the midpoint between
// the compaction trigger and the stall trigger, every flush is marching
// writers toward a stall, and a stalled writer is strictly worse than an
// oversized level.
func l0UrgentThreshold(opts *Options) int {
	return max(opts.L0CompactionTrigger, (opts.L0CompactionTrigger+opts.L0StallTrigger)/2)
}

// chooseLevel applies the shared priority rule to a score vector: the
// urgent-L0 override first, then the highest fullness ratio ≥ 1.0 among
// unclaimed level pairs, ties to the shallower level (strict > keeps the
// first maximum).
//
// The urgent override is deliberately count-based, not score-based: a
// policy that scales L0's score down (lazy-leveling) must still drain L0
// once the run count marches toward the stall trigger, because a stalled
// writer adds no more flushes — if the policy waited for its own relaxed
// threshold past the stall point, writers and picker would deadlock.
// withDefaults guarantees L0StallTrigger ≥ L0CompactionTrigger, so the
// urgent threshold (at most the trigger/stall midpoint) is always reached
// at or before the stall.
func chooseLevel(env *policyEnv, v *Version, scores [NumLevels]float64) int {
	if env.free(0) && len(v.Levels[0]) >= l0UrgentThreshold(env.opts) {
		return 0
	}
	best, bestScore := -1, 0.0
	for l := 0; l < NumLevels-1; l++ {
		if scores[l] < 1.0 || !env.free(l) || len(v.Levels[l]) == 0 {
			continue
		}
		if scores[l] > bestScore {
			best, bestScore = l, scores[l]
		}
	}
	return best
}

// pickInputs assembles the inputs for a compaction at level: every L0 run
// (they may overlap each other), or the single table of a deeper level
// chosen by pickFile, plus the next level's overlap. A pick that would
// read a quarantined table is refused: merging through one would only
// re-read the damage (and fail the compaction), so its slice of the key
// space stays frozen until the quarantine is lifted.
func pickInputs(env *policyEnv, v *Version, level int,
	pickFile func(env *policyEnv, v *Version, level int) *TableMeta) *pickedCompaction {
	pc := &pickedCompaction{level: level}
	if level == 0 {
		// An L0 compaction takes every run; one quarantined run blocks them
		// all (dropping just it would merge stale data over newer versions).
		for _, t := range v.Levels[0] {
			if env.isQuarantined(t.Num) {
				return nil
			}
		}
		pc.inputs = append(pc.inputs, v.Levels[0]...)
	} else {
		t := pickFile(env, v, level)
		if t == nil {
			return nil
		}
		pc.inputs = append(pc.inputs, t)
	}
	smallest, largest := keyRange(pc.inputs)
	pc.overlap = v.overlapping(level+1, smallest, largest)
	for _, t := range pc.overlap {
		if env.isQuarantined(t.Num) {
			return nil
		}
	}
	return pc
}

// cursorPick is the round-robin file picker: the first table starting
// after the level's persisted cursor, wrapping to the start. The cursor
// is advanced at install time and journaled in the manifest, so the
// rotation survives reopen.
func cursorPick(env *policyEnv, v *Version, level int) *TableMeta {
	tables := v.Levels[level]
	if len(tables) == 0 {
		return nil
	}
	ptr := env.cursor[level]
	idx := 0
	if ptr != nil {
		idx = sort.Search(len(tables), func(i int) bool {
			return ikey.Compare(tables[i].Smallest, ptr) > 0
		})
		if idx == len(tables) {
			idx = 0
		}
	}
	// Rotate past quarantined tables so one frozen range does not stop the
	// rest of the level from compacting.
	for i := 0; i < len(tables); i++ {
		if t := tables[(idx+i)%len(tables)]; !env.isQuarantined(t.Num) {
			return t
		}
	}
	return nil
}

// levelingPolicy is the default: normalized max-fullness triggers,
// round-robin file picking.
type levelingPolicy struct{}

func (levelingPolicy) Name() string { return PolicyLeveling }

func (levelingPolicy) Pick(env *policyEnv, v *Version) *pickedCompaction {
	level := chooseLevel(env, v, levelScores(env.opts, v))
	if level < 0 {
		return nil
	}
	return pickInputs(env, v, level, cursorPick)
}

// Lazy-leveling knobs: L0 merges after lazyL0Factor× the configured
// trigger (more runs per merge — tiering's batching at level 0), and
// levels above the deepest populated one tolerate lazySlack× their
// leveling threshold so merge work concentrates at the bottom. The
// deepest populated level stays strictly leveled, which is the
// lazy-leveling corner of the design space approximated by threshold
// re-parameterization: levels ≥ 1 keep the disjointness invariant, so the
// read path and recovery are untouched.
const (
	lazyL0Factor = 2.0
	lazySlack    = 2.0
)

type lazyLevelingPolicy struct{}

func (lazyLevelingPolicy) Name() string { return PolicyLazyLeveling }

func (lazyLevelingPolicy) Pick(env *policyEnv, v *Version) *pickedCompaction {
	scores := levelScores(env.opts, v)
	deepest := 0
	for l := NumLevels - 1; l > 0; l-- {
		if len(v.Levels[l]) > 0 {
			deepest = l
			break
		}
	}
	scores[0] /= lazyL0Factor
	for l := 1; l < deepest; l++ {
		scores[l] /= lazySlack
	}
	level := chooseLevel(env, v, scores)
	if level < 0 {
		return nil
	}
	return pickInputs(env, v, level, cursorPick)
}

// coldestHotLimit caps how many heat samples a coldest-range pick
// consults; beyond the hottest few hundred ranges the signal is noise.
const coldestHotLimit = 1024

type coldestRangePolicy struct{}

func (coldestRangePolicy) Name() string { return PolicyColdestRange }

func (coldestRangePolicy) Pick(env *policyEnv, v *Version) *pickedCompaction {
	level := chooseLevel(env, v, levelScores(env.opts, v))
	if level < 0 {
		return nil
	}
	return pickInputs(env, v, level, coldestPick)
}

// coldestPick prefers a table whose key range holds no read-hot keys per
// the block-cache heat map, so compaction rewrites (which renumber files
// and churn the cache) land on cold data and the hot working set keeps
// its cached blocks. The scan starts at the round-robin cursor so
// equally-cold tables still rotate; with no heat data, or when every
// table covers a hot range, it degrades to the plain cursor pick.
func coldestPick(env *policyEnv, v *Version, level int) *TableMeta {
	first := cursorPick(env, v, level)
	tables := v.Levels[level]
	if env.heat == nil || first == nil || len(tables) < 2 {
		return first
	}
	hot := env.heat.Snapshot(heatHotThreshold, coldestHotLimit)
	if hot.Len() == 0 {
		return first
	}
	idx := 0
	for i, t := range tables {
		if t == first {
			idx = i
			break
		}
	}
	for i := 0; i < len(tables); i++ {
		t := tables[(idx+i)%len(tables)]
		if env.isQuarantined(t.Num) {
			continue
		}
		if !hot.AnyInRange(ikey.UserKey(t.Smallest), ikey.UserKey(t.Largest)) {
			return t
		}
	}
	return first
}
