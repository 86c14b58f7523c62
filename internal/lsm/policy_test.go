package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pcplsm/internal/ikey"
	"pcplsm/internal/storage"
)

// testTab builds a TableMeta spanning the user-key range [lo, hi].
func testTab(num uint64, lo, hi string, size int64) *TableMeta {
	return &TableMeta{
		Num:      num,
		Size:     size,
		Entries:  1,
		Smallest: ikey.Make([]byte(lo), ikey.MaxSeq, ikey.KindSet),
		Largest:  ikey.Make([]byte(hi), 0, ikey.KindSet),
	}
}

// testPolicyEnv builds a synthetic picker environment with every level
// pair free and empty cursors.
func testPolicyEnv(opts Options) *policyEnv {
	o := opts
	return &policyEnv{
		opts:   &o,
		free:   func(int) bool { return true },
		cursor: &[NumLevels][]byte{},
	}
}

// TestPickPriorityNormalizedScores pins the priority order of the fixed
// picker: scores are dimensionless fullness ratios, so a deeply oversized
// L1 outranks a barely-over-trigger L0 (the old picker compared a file
// count against byte ratios and let either starve the other), while an L0
// run count past the urgent threshold wins outright because it is
// marching writers toward the stall trigger.
func TestPickPriorityNormalizedScores(t *testing.T) {
	opts := smallOpts(nil) // trigger 4, stall 8, base 64K → urgent at 6
	env := testPolicyEnv(opts)
	pol := levelingPolicy{}

	l1Oversized := []*TableMeta{ // 3× the 64K L1 budget
		testTab(10, "a", "f", 96<<10),
		testTab(11, "g", "p", 96<<10),
	}

	// L0 exactly at trigger (score 1.0) vs L1 at 3.0: L1 must win.
	v := &Version{}
	for i := uint64(0); i < 4; i++ {
		v.Levels[0] = append(v.Levels[0], testTab(i, "a", "z", 4<<10))
	}
	v.Levels[1] = l1Oversized
	pc := pol.Pick(env, v)
	if pc == nil || pc.level != 1 {
		t.Fatalf("oversized L1 vs at-trigger L0: picked %+v, want level 1", pc)
	}

	// L0 at the urgent threshold (6 ≥ (4+8)/2) wins even against L1 at 3.0.
	for i := uint64(4); i < 6; i++ {
		v.Levels[0] = append(v.Levels[0], testTab(i, "a", "z", 4<<10))
	}
	pc = pol.Pick(env, v)
	if pc == nil || pc.level != 0 {
		t.Fatalf("urgent L0 vs oversized L1: picked %+v, want level 0", pc)
	}
	if len(pc.inputs) != 6 {
		t.Fatalf("L0 pick took %d runs, want all 6", len(pc.inputs))
	}

	// Equal fullness ratios tie to the shallower level.
	v = &Version{}
	v.Levels[1] = []*TableMeta{testTab(20, "a", "m", 128<<10)}   // 2.0
	v.Levels[2] = []*TableMeta{testTab(21, "a", "m", 2*256<<10)} // 2.0
	if pc = pol.Pick(env, v); pc == nil || pc.level != 1 {
		t.Fatalf("equal scores: picked %+v, want shallower level 1", pc)
	}

	// Nothing over threshold → nil.
	v = &Version{}
	v.Levels[0] = []*TableMeta{testTab(30, "a", "b", 4<<10)}
	v.Levels[1] = []*TableMeta{testTab(31, "c", "d", 4<<10)}
	if pc = pol.Pick(env, v); pc != nil {
		t.Fatalf("under-threshold tree: picked %+v, want nil", pc)
	}

	// A claimed level pair is skipped in favor of the runner-up.
	v = &Version{}
	v.Levels[1] = []*TableMeta{testTab(40, "a", "m", 3*64<<10)}  // 3.0
	v.Levels[2] = []*TableMeta{testTab(41, "n", "z", 2*256<<10)} // 2.0
	busy := testPolicyEnv(opts)
	busy.free = func(level int) bool { return level != 1 }
	if pc = pol.Pick(busy, v); pc == nil || pc.level != 2 {
		t.Fatalf("claimed L1: picked %+v, want level 2", pc)
	}
}

// TestLazyLevelingDefersUpperLevels verifies the tiering posture: levels
// above the deepest populated one tolerate the slack factor before
// compacting, L0 accumulates twice the configured trigger, and the
// deepest populated level keeps strict leveling thresholds.
func TestLazyLevelingDefersUpperLevels(t *testing.T) {
	opts := smallOpts(nil)
	env := testPolicyEnv(opts)
	lazy := lazyLevelingPolicy{}
	strict := levelingPolicy{}

	// L1 at 1.5× with data below it: leveling compacts, lazy defers
	// (1.5 / lazySlack = 0.75).
	v := &Version{}
	v.Levels[1] = []*TableMeta{testTab(1, "a", "m", 96<<10)}
	v.Levels[2] = []*TableMeta{testTab(2, "n", "z", 8<<10)}
	if pc := strict.Pick(env, v); pc == nil || pc.level != 1 {
		t.Fatalf("leveling: picked %+v, want level 1", pc)
	}
	if pc := lazy.Pick(env, v); pc != nil {
		t.Fatalf("lazy-leveling: picked level %d, want deferral", pc.level)
	}

	// Past the slack (2× threshold) lazy compacts too.
	v.Levels[1] = []*TableMeta{testTab(1, "a", "m", 128<<10)}
	if pc := lazy.Pick(env, v); pc == nil || pc.level != 1 {
		t.Fatalf("lazy-leveling past slack: picked %+v, want level 1", pc)
	}

	// The deepest populated level is not deferred: same 1.5× ratio on L2
	// with nothing below it must compact under both policies.
	v = &Version{}
	v.Levels[2] = []*TableMeta{testTab(3, "a", "m", 384<<10)} // 1.5 × 256K
	if pc := lazy.Pick(env, v); pc == nil || pc.level != 2 {
		t.Fatalf("lazy-leveling deepest level: picked %+v, want level 2", pc)
	}

	// L0 at the configured trigger is deferred, at 2× it merges.
	v = &Version{}
	for i := uint64(0); i < 4; i++ {
		v.Levels[0] = append(v.Levels[0], testTab(i, "a", "z", 4<<10))
	}
	v.Levels[1] = []*TableMeta{testTab(9, "a", "z", 4<<10)}
	if pc := lazy.Pick(env, v); pc != nil {
		t.Fatalf("lazy-leveling L0 at trigger: picked level %d, want deferral", pc.level)
	}
	for i := uint64(4); i < 8; i++ {
		v.Levels[0] = append(v.Levels[0], testTab(i, "a", "z", 4<<10))
	}
	if pc := lazy.Pick(env, v); pc == nil || pc.level != 0 {
		t.Fatalf("lazy-leveling L0 at 2× trigger: picked %+v, want level 0", pc)
	}
}

// TestCursorPickRotates pins the round-robin picker: the cursor selects
// the first table starting strictly after it and wraps to the front.
func TestCursorPickRotates(t *testing.T) {
	opts := smallOpts(nil)
	env := testPolicyEnv(opts)
	v := &Version{}
	v.Levels[1] = []*TableMeta{
		testTab(1, "a", "c", 1),
		testTab(2, "d", "f", 1),
		testTab(3, "g", "i", 1),
	}

	if got := cursorPick(env, v, 1); got.Num != 1 {
		t.Fatalf("nil cursor: picked %d, want 1", got.Num)
	}
	env.cursor[1] = v.Levels[1][0].Largest
	if got := cursorPick(env, v, 1); got.Num != 2 {
		t.Fatalf("cursor after table 1: picked %d, want 2", got.Num)
	}
	env.cursor[1] = v.Levels[1][2].Largest
	if got := cursorPick(env, v, 1); got.Num != 1 {
		t.Fatalf("cursor past the end: picked %d, want wrap to 1", got.Num)
	}
}

// fillDisjointL1 loads several disjoint key bands and pushes each through
// L0 so L1 accumulates multiple tables.
func fillDisjointL1(t *testing.T, db *DB, bands int) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), 64)
	for band := 0; band < bands; band++ {
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("band%02d-%05d", band, i)
			if err := db.Put([]byte(k), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactLevel(0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactPtrPersistsAcrossReopen proves the round-robin cursor is
// journaled in the manifest and keeps advancing after a restart instead
// of resetting to the start of the level (the latent bug this PR fixes).
func TestCompactPtrPersistsAcrossReopen(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)

	fillDisjointL1(t, db, 4)
	if n := len(db.Version().Levels[1]); n < 3 {
		t.Fatalf("setup: L1 has %d tables, want ≥ 3", n)
	}

	// One manual L1 compaction advances the cursor past the first table.
	if err := db.CompactLevel(1); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	cursor1 := append([]byte(nil), db.compactPtr[1]...)
	db.mu.Unlock()
	if cursor1 == nil {
		t.Fatal("cursor not set after L1 compaction")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the cursor must survive, not reset.
	db = mustOpen(t, opts)
	defer db.Close()
	db.mu.Lock()
	cursor2 := append([]byte(nil), db.compactPtr[1]...)
	db.mu.Unlock()
	if !bytes.Equal(cursor1, cursor2) {
		t.Fatalf("cursor reset across reopen: %q → %q",
			ikey.String(cursor1), ikey.String(cursor2))
	}

	// The next compaction continues the rotation monotonically: the new
	// cursor (the compacted table's largest key) lies strictly beyond the
	// persisted one.
	if err := db.CompactLevel(1); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	cursor3 := append([]byte(nil), db.compactPtr[1]...)
	db.mu.Unlock()
	if ikey.Compare(cursor3, cursor2) <= 0 {
		t.Fatalf("cursor did not advance monotonically after reopen: %q → %q",
			ikey.String(cursor2), ikey.String(cursor3))
	}
}

// TestTrivialMoveInstallsMetadataOnly drives runTrivialMove directly: a
// single L1 table with no L2 overlap must descend as a pure version edit —
// same file number, no new table files, counted in Stats — and the move
// must survive a reopen via its manifest record.
func TestTrivialMoveInstallsMetadataOnly(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)

	fillDisjointL1(t, db, 1)
	v := db.Version()
	if len(v.Levels[1]) == 0 {
		t.Fatal("setup: L1 empty")
	}
	target := v.Levels[1][0]
	tablesBefore := countTableFiles(t, fs)

	db.mu.Lock()
	pc := pickInputs(db.penv, v, 1)
	if pc == nil || len(pc.overlap) != 0 {
		db.mu.Unlock()
		t.Fatalf("setup: expected overlap-free pick, got %+v", pc)
	}
	claim := db.tryClaimCompaction(pc)
	if claim == nil {
		db.mu.Unlock()
		t.Fatal("claim failed")
	}
	if !db.trivialMoveOK(pc) {
		db.mu.Unlock()
		t.Fatal("trivialMoveOK = false for an overlap-free single input")
	}
	db.mu.Unlock()

	if err := db.runTrivialMove(pc); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.releaseCompaction(claim)
	db.mu.Unlock()

	v = db.Version()
	for _, tab := range v.Levels[1] {
		if tab.Num == target.Num {
			t.Fatal("moved table still present in L1")
		}
	}
	found := false
	for _, tab := range v.Levels[2] {
		if tab.Num == target.Num {
			found = true
		}
	}
	if !found {
		t.Fatalf("table %d not found in L2 after trivial move", target.Num)
	}
	if err := v.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.TrivialMoves != 1 || s.TrivialMoveBytes != target.Size {
		t.Fatalf("TrivialMoves=%d bytes=%d, want 1/%d", s.TrivialMoves, s.TrivialMoveBytes, target.Size)
	}
	if got := countTableFiles(t, fs); got != tablesBefore {
		t.Fatalf("table file count changed %d → %d: a trivial move must not write tables",
			tablesBefore, got)
	}

	// The move is journaled: reopen and verify layout and reads.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, opts)
	defer db.Close()
	found = false
	for _, tab := range db.Version().Levels[2] {
		if tab.Num == target.Num {
			found = true
		}
	}
	if !found {
		t.Fatal("trivial move lost across reopen")
	}
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("band%02d-%05d", 0, i)
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("Get(%s) after move+reopen: %v", k, err)
		}
	}
}

// countTableFiles counts .sst files in the store.
func countTableFiles(t *testing.T, fs storage.FS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if _, err := parseTableNum(name); err == nil {
			n++
		}
	}
	return n
}

// TestTrivialMoveGuards pins the denial cases: disabled via Options, a
// multi-input pick, an overlapping pick, and a move into the bottom level
// while no snapshot is open (the rewrite is the only tombstone-drop
// opportunity there).
func TestTrivialMoveGuards(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	tab := testTab(99, "a", "b", 1<<10)
	single := &pickedCompaction{level: 1, inputs: []*TableMeta{tab}}

	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.trivialMoveOK(single) {
		t.Fatal("baseline single overlap-free pick should be movable")
	}
	if db.trivialMoveOK(&pickedCompaction{level: 1, inputs: []*TableMeta{tab, tab}}) {
		t.Fatal("multi-input pick must not move")
	}
	if db.trivialMoveOK(&pickedCompaction{level: 1, inputs: []*TableMeta{tab}, overlap: []*TableMeta{tab}}) {
		t.Fatal("overlapping pick must not move")
	}
	if db.trivialMoveOK(&pickedCompaction{level: NumLevels - 2, inputs: []*TableMeta{tab}}) {
		t.Fatal("move into the bottom level must rewrite to drop tombstones")
	}
	db.opts.DisableTrivialMove = true
	if db.trivialMoveOK(single) {
		t.Fatal("DisableTrivialMove must force the rewrite path")
	}
	db.opts.DisableTrivialMove = false
}

// TestTrivialMovesHappenOnSequentialLoad is the end-to-end check: a
// sequential insert load builds non-overlapping tables all the way down, so
// once L1 overflows the picker's choice is a single table with nothing
// under it, which the background step installs as a trivial move instead
// of rewriting. The tree is built with auto compaction off and the picker
// pass is driven by hand, as backgroundStep runs it, so the outcome does
// not depend on how many L0 tables a racing background worker sees.
func TestTrivialMovesHappenOnSequentialLoad(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.CompactionPolicy = PolicyLeveling
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	// Each round stays well under the memtable size, so Flush writes one L0
	// table and CompactLevel(0) appends it to L1.
	val := bytes.Repeat([]byte("v"), 128)
	key := 0
	for round := 0; db.Version().LevelSize(1) < db.opts.maxLevelSize(1); round++ {
		if round == 200 {
			t.Fatalf("setup: L1 holds %d bytes after %d rounds", db.Version().LevelSize(1), round)
		}
		for i := 0; i < 100; i++ {
			if err := db.Put([]byte(fmt.Sprintf("seq%08d", key)), val); err != nil {
				t.Fatal(err)
			}
			key++
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactLevel(0); err != nil {
			t.Fatal(err)
		}
	}

	db.mu.Lock()
	pc := db.pickCompaction(db.vs.Current())
	if pc == nil {
		db.mu.Unlock()
		t.Fatal("picker found no work with L1 over its size")
	}
	claim := db.tryClaimCompaction(pc)
	if claim == nil {
		db.mu.Unlock()
		t.Fatal("claim failed")
	}
	trivial := db.trivialMoveOK(pc)
	db.mu.Unlock()
	var err error
	if trivial {
		err = db.runTrivialMove(pc)
	}
	db.mu.Lock()
	db.releaseCompaction(claim)
	db.mu.Unlock()
	if !trivial {
		t.Fatalf("pick L%d with %d inputs and %d overlapping tables is not a trivial move",
			pc.level, len(pc.inputs), len(pc.overlap))
	}
	if err != nil {
		t.Fatal(err)
	}

	if s := db.Stats(); s.TrivialMoves != 1 || s.TrivialMoveBytes != pc.inputs[0].Size {
		t.Fatalf("TrivialMoves=%d bytes=%d, want 1/%d", s.TrivialMoves, s.TrivialMoveBytes, pc.inputs[0].Size)
	}
	v := db.Version()
	found := false
	for _, tab := range v.Levels[pc.level+1] {
		if tab.Num == pc.inputs[0].Num {
			found = true
		}
	}
	if !found {
		t.Fatalf("table %d not in L%d after the move", pc.inputs[0].Num, pc.level+1)
	}
	if err := v.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyEquivalenceRandomOps drives every policy (and the self-tuned
// auto mode) through the same seeded random workload — puts, deletes,
// reads, flushes, reopens — against a reference map. Policies decide only
// when and what to compact, never merge semantics, so read results must be
// identical regardless of policy.
func TestPolicyEquivalenceRandomOps(t *testing.T) {
	policies := []string{"auto", PolicyLeveling, PolicyLazyLeveling}
	for _, polName := range policies {
		polName := polName
		t.Run(polName, func(t *testing.T) {
			t.Parallel()
			fs := storage.NewMemFS()
			opts := smallOpts(fs)
			if polName != "auto" {
				opts.CompactionPolicy = polName
			}

			db := mustOpen(t, opts)
			defer func() { db.Close() }()
			ref := map[string]string{}
			rng := rand.New(rand.NewSource(0xBEEF))
			key := func() string { return fmt.Sprintf("key%06d", rng.Intn(2000)) }

			const steps = 6000
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 40: // put
					k, v := key(), fmt.Sprintf("v%d", step)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatalf("step %d put: %v", step, err)
					}
					ref[k] = v
				case r < 50: // delete
					k := key()
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					delete(ref, k)
				case r < 94: // point read
					k := key()
					got, err := db.Get([]byte(k))
					want, ok := ref[k]
					if ok {
						if err != nil || string(got) != want {
							t.Fatalf("step %d: Get(%s) = %q,%v want %q", step, k, got, err, want)
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: Get(%s) = %q,%v want not-found", step, k, got, err)
					}
				case r < 97: // flush
					if err := db.Flush(); err != nil {
						t.Fatalf("step %d: flush: %v", step, err)
					}
				default: // close + reopen (crash-free restart)
					if err := db.Close(); err != nil {
						t.Fatalf("step %d: close: %v", step, err)
					}
					db = mustOpen(t, opts)
				}
			}

			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			if err := db.Version().checkInvariants(); err != nil {
				t.Fatal(err)
			}
			verifyAll(t, db, ref)
		})
	}
}

// TestTunerSwitchesPolicyOnWorkloadShift scripts a workload shift through
// the production sampling path (maybeTunePolicy reads the same stats
// collector the write path feeds) and asserts the auto-tuner reacts: a
// stalling write-heavy phase with high write amplification selects
// lazy-leveling.
func TestTunerSwitchesPolicyOnWorkloadShift(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	if got := db.ActivePolicy(); got != PolicyLeveling {
		t.Fatalf("initial policy = %s, want %s", got, PolicyLeveling)
	}

	// Write-pressure phase: stalls plus write-amp past the threshold.
	for i := 0; i < 8 && db.ActivePolicy() != PolicyLazyLeveling; i++ {
		db.stats.puts.Add(5000)
		db.stats.update(func(s *Stats) {
			s.StallCount++
			s.FlushBytes += 1 << 20
			s.CompactionOutputBytes += 4 << 20 // amp (1+4)/1 = 5 ≥ 2.5
		})
		db.maybeTunePolicy()
	}
	if got := db.ActivePolicy(); got != PolicyLazyLeveling {
		t.Fatalf("after write-pressure phase: policy = %s, want %s", got, PolicyLazyLeveling)
	}

	s := db.Stats()
	if s.PolicySwitches < 1 {
		t.Fatalf("PolicySwitches = %d, want ≥ 1", s.PolicySwitches)
	}
	if s.ActivePolicy != PolicyLazyLeveling {
		t.Fatalf("Stats().ActivePolicy = %s, want %s", s.ActivePolicy, PolicyLazyLeveling)
	}
	if got := db.Metrics()["lsm_policy_active"]; got != policyIndex(PolicyLazyLeveling) {
		t.Fatalf("lsm_policy_active = %d, want %d", got, policyIndex(PolicyLazyLeveling))
	}
}

// TestPolicySwitchWakesWaitIdle: WaitIdle's "nothing left to pick" test
// depends on the active policy, so a switch must wake a waiter that saw work
// under the old one. Without the wakeup WaitIdle sleeps forever once the new
// policy has nothing to pick, because no background unit is left to signal.
func TestPolicySwitchWakesWaitIdle(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true // only the switch can change WaitIdle's answer
	db := mustOpen(t, opts)
	defer db.Close()
	for f := 0; f < opts.L0CompactionTrigger; f++ {
		if err := db.Put([]byte(fmt.Sprintf("w%d", f)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.Lock()
	v := db.vs.Current()
	leveling, lazy := db.pickCompaction(v), (lazyLevelingPolicy{}).Pick(db.penv, v)
	db.mu.Unlock()
	if leveling == nil || lazy != nil {
		t.Fatalf("L0 at trigger: leveling pick %v, lazy-leveling pick %v; want a pick and none", leveling, lazy)
	}

	done := make(chan error, 1)
	go func() { done <- db.WaitIdle() }()
	select {
	case err := <-done:
		t.Fatalf("WaitIdle returned %v with a leveling pick pending", err)
	case <-time.After(50 * time.Millisecond): // let WaitIdle reach its wait
	}
	db.setPolicy(PolicyLazyLeveling)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitIdle still blocked after a switch to a policy with nothing to pick")
	}
}

// TestPinnedPolicyDisablesTuner: naming a policy in Options must pin it —
// no tuner, no switches, whatever the workload does.
func TestPinnedPolicyDisablesTuner(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.CompactionPolicy = PolicyLazyLeveling
	opts.BlockCacheBytes = 128 << 10
	db := mustOpen(t, opts)
	defer db.Close()

	if db.tuner != nil {
		t.Fatal("pinned policy must not construct a tuner")
	}
	db.stats.gets.Add(100000)
	db.maybeTunePolicy()
	db.maybeTunePolicy()
	if got := db.ActivePolicy(); got != PolicyLazyLeveling {
		t.Fatalf("pinned policy drifted to %s", got)
	}
	if db.Stats().PolicySwitches != 0 {
		t.Fatal("pinned policy recorded switches")
	}
}

// TestUnknownPolicyRejected: a typo in Options.CompactionPolicy, or a
// retired policy name, must fail Open, not silently fall back.
func TestUnknownPolicyRejected(t *testing.T) {
	for _, name := range []string{"tiering-turbo", "coldest-range"} {
		opts := smallOpts(storage.NewMemFS())
		opts.CompactionPolicy = name
		if _, err := Open(opts); err == nil {
			t.Fatalf("Open accepted the unknown compaction policy %q", name)
		}
	}
}

// TestUrgentL0OverridesPolicyScore is the stall-deadlock regression: the
// urgent-L0 override must be count-based, not score-based. Lazy-leveling
// halves L0's fullness score, so at the urgent run count its score can
// still be under 1.0 — if the override consulted the score, a store with
// a tight stall trigger would stall its writers on an L0 the policy was
// never going to drain (writers add no flushes while stalled, so the
// count could never grow to lazy-leveling's own threshold: deadlock).
func TestUrgentL0OverridesPolicyScore(t *testing.T) {
	opts := smallOpts(nil) // trigger 4, stall 8 → urgent at 6
	env := testPolicyEnv(opts)
	v := &Version{}
	for i := uint64(0); i < 6; i++ {
		v.Levels[0] = append(v.Levels[0], testTab(i, "a", "z", 4<<10))
	}
	// Lazy-leveling's scaled L0 score is 6/4/2 = 0.75 < 1.0, but six runs
	// are at the urgent threshold: the pick must still drain L0.
	pc := lazyLevelingPolicy{}.Pick(env, v)
	if pc == nil || pc.level != 0 {
		t.Fatalf("lazy-leveling at urgent L0 count: picked %+v, want level 0", pc)
	}

	// End to end: lazy-leveling pinned with the stall trigger clamped down
	// to the compaction trigger. Before the fix this deadlocked — writers
	// stalled at 2 L0 runs while the policy wanted 4 — so completing the
	// load at all is the assertion.
	dopts := smallOpts(storage.NewMemFS())
	dopts.CompactionPolicy = PolicyLazyLeveling
	dopts.L0CompactionTrigger = 2
	dopts.L0StallTrigger = 2
	db := mustOpen(t, dopts)
	defer db.Close()
	ref := loadKeys(t, db, 2000, 11, 64)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, db, ref)
}

// TestStallTriggerClampedToCompactionTrigger: a stall trigger below the
// compaction trigger would stall writers on an L0 nothing will drain;
// withDefaults must lift it to the trigger.
func TestStallTriggerClampedToCompactionTrigger(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.L0CompactionTrigger = 6
	opts.L0StallTrigger = 2
	db := mustOpen(t, opts)
	defer db.Close()
	if got := db.opts.L0StallTrigger; got != 6 {
		t.Fatalf("L0StallTrigger = %d, want clamped to 6", got)
	}
}
