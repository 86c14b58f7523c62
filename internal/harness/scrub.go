package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pcplsm/internal/lsm"
	"pcplsm/internal/storage"
)

// Integrity harness: seed a store, inject at-rest bit-rot into one live
// table behind the running engine's back, and verify the integrity
// contract end to end:
//
//   - the background scrub worker detects the rot within one full cycle
//     over the tree and quarantines exactly the damaged table;
//   - reads over the quarantined range fail typed (ErrQuarantined, never
//     the store-wide ErrBackgroundError), every other range keeps serving
//     the correct values, and the store stays writable;
//   - the quarantine survives a close/reopen (it is manifest state);
//   - with ParanoidChecks enabled, a lying device that garbles a flush or
//     compaction output in flight is caught by verify-before-install: the
//     output is discarded and rebuilt before the manifest references it.
//
// Every random choice derives from ScrubConfig.Seed, so a failing cycle
// replays exactly by seed.

// ScrubConfig parameterizes one bit-rot/scrub/quarantine cycle.
type ScrubConfig struct {
	// Seed drives the workload, the rot target and offsets, and the garble
	// fault of the paranoid leg.
	Seed int64
	// Keys is the keyspace size per table-producing round (default 150).
	Keys int
	// ValueLen pads values to roughly this many bytes (default 48).
	ValueLen int
	// RotBytes is how many file bytes get a flipped bit (default 4).
	RotBytes int
	// DetectTimeout bounds the wait for the background scrubber (default 30s).
	DetectTimeout time.Duration
}

func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.Keys <= 0 {
		c.Keys = 150
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 48
	}
	if c.RotBytes <= 0 {
		c.RotBytes = 4
	}
	if c.DetectTimeout <= 0 {
		c.DetectTimeout = 30 * time.Second
	}
	return c
}

// ScrubCycleResult summarizes one cycle.
type ScrubCycleResult struct {
	Seed   int64
	Rotted string
	// CyclesAtDetection is how many scrub cycles completed between the rot
	// injection and the quarantine landing: <= 2 means the rot was caught
	// within one full pass over the tree (the pass in flight at injection
	// time may already be past the table, so one wrap can intervene).
	CyclesAtDetection  int64
	TablesVerified     int64
	BytesVerified      int64
	QuarantinedKeys    int
	HealthyKeys        int
	ParanoidRejections int64
}

// scrubGeometry sizes the store so a short workload yields several tables,
// with the background scrubber cycling aggressively and unthrottled.
func scrubGeometry(fs storage.FS) lsm.Options {
	opts := crashGeometry(fs, false, "")
	opts.DisableAutoCompaction = true // keep the rot target alive and in place
	opts.ScrubInterval = time.Millisecond
	opts.ScrubBytesPerSec = -1
	return opts
}

// scrubWorkloadKey returns key i of round r; rounds are flushed separately,
// so each round is (at least) one table with a disjoint range.
func scrubWorkloadKey(r, i int) []byte { return []byte(fmt.Sprintf("r%02d-k%05d", r, i)) }

func scrubWorkloadValue(seed int64, r, i, valueLen int) []byte {
	val := fmt.Sprintf("s%d-r%d-k%d-", seed, r, i)
	for len(val) < valueLen {
		val += "v"
	}
	return []byte(val)
}

// scrubRounds is how many flushed rounds seed the tree.
const scrubRounds = 3

// loadScrubWorkload writes scrubRounds disjoint key ranges, flushing each
// into its own table(s), and returns the expected key→value state.
func loadScrubWorkload(db *lsm.DB, cfg ScrubConfig) (map[string]string, error) {
	expected := map[string]string{}
	for r := 0; r < scrubRounds; r++ {
		for i := 0; i < cfg.Keys; i++ {
			k, v := scrubWorkloadKey(r, i), scrubWorkloadValue(cfg.Seed, r, i, cfg.ValueLen)
			if err := db.Put(k, v); err != nil {
				return nil, fmt.Errorf("loading round %d: %w", r, err)
			}
			expected[string(k)] = string(v)
		}
		if err := db.Flush(); err != nil {
			return nil, fmt.Errorf("flushing round %d: %w", r, err)
		}
	}
	return expected, nil
}

// auditScrubState sweeps every expected key on a store with one quarantined
// table: each Get must either return the correct value or fail scoped with
// ErrQuarantined. Returns the set of quarantined keys and the healthy count.
func auditScrubState(db *lsm.DB, expected map[string]string) (map[string]bool, int, error) {
	quarantined := map[string]bool{}
	healthy := 0
	for key, want := range expected {
		val, err := db.Get([]byte(key))
		switch {
		case err == nil:
			if string(val) != want {
				return nil, 0, fmt.Errorf("key %s = %q, want %q", key, val, want)
			}
			healthy++
		case errors.Is(err, lsm.ErrQuarantined):
			if errors.Is(err, lsm.ErrBackgroundError) {
				return nil, 0, fmt.Errorf("key %s: %v implies ErrBackgroundError (store-wide degradation)", key, err)
			}
			quarantined[key] = true
		default:
			return nil, 0, fmt.Errorf("key %s: unexpected error %v", key, err)
		}
	}
	return quarantined, healthy, nil
}

// RunScrubCycle executes one seeded bit-rot cycle and verifies the
// integrity contract, returning an error describing the first violation.
func RunScrubCycle(cfg ScrubConfig) (ScrubCycleResult, error) {
	cfg = cfg.withDefaults()
	res := ScrubCycleResult{Seed: cfg.Seed}
	fail := func(format string, a ...any) (ScrubCycleResult, error) {
		return res, fmt.Errorf("scrub cycle seed %d: %w", cfg.Seed, fmt.Errorf(format, a...))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	inner := storage.NewMemFS()
	ffs := storage.NewSeededFaultFS(inner, cfg.Seed)
	db, err := lsm.Open(scrubGeometry(ffs))
	if err != nil {
		return fail("initial open: %v", err)
	}
	expected, err := loadScrubWorkload(db, cfg)
	if err != nil {
		db.Close()
		return fail("%v", err)
	}

	// Rot a seeded live table behind the engine's back.
	names, err := ffs.List()
	if err != nil {
		db.Close()
		return fail("listing files: %v", err)
	}
	sort.Strings(names)
	var tables []string
	for _, nm := range names {
		if len(nm) > 4 && nm[len(nm)-4:] == ".sst" {
			tables = append(tables, nm)
		}
	}
	if len(tables) < scrubRounds {
		db.Close()
		return fail("only %d tables on disk, want >= %d", len(tables), scrubRounds)
	}
	res.Rotted = tables[rng.Intn(len(tables))]
	if _, err := ffs.RotBytes(res.Rotted, cfg.RotBytes); err != nil {
		db.Close()
		return fail("injecting rot into %s: %v", res.Rotted, err)
	}
	cyclesAtInjection := db.Stats().ScrubCycles

	// The background worker must find the rot without any foreground read
	// tripping on it first.
	deadline := time.Now().Add(cfg.DetectTimeout)
	s := db.Stats()
	for s.QuarantinedTables == 0 {
		if time.Now().After(deadline) {
			db.Close()
			return fail("background scrub never quarantined the rotted table")
		}
		time.Sleep(time.Millisecond)
		s = db.Stats()
	}
	res.CyclesAtDetection = s.ScrubCycles - cyclesAtInjection
	res.TablesVerified = s.ScrubTablesVerified
	res.BytesVerified = s.ScrubBytesVerified
	if s.QuarantinedTables != 1 {
		db.Close()
		return fail("%d tables quarantined, want exactly the rotted one", s.QuarantinedTables)
	}
	if s.ScrubCorruptions != 1 {
		db.Close()
		return fail("ScrubCorruptions = %d, want 1", s.ScrubCorruptions)
	}
	// Detection within one full pass over the tree: the pass in flight at
	// injection may already be beyond the table (one wrap), and the stats
	// poll can lag the quarantine by a fraction of a cycle (one more).
	if res.CyclesAtDetection > 3 {
		db.Close()
		return fail("rot survived %d scrub cycles, want detection within one full pass", res.CyclesAtDetection)
	}

	// Scoped degradation: some keys fail typed, everything else serves the
	// correct value, and the store stays writable.
	quarKeys, healthy, err := auditScrubState(db, expected)
	if err != nil {
		db.Close()
		return fail("%v", err)
	}
	res.QuarantinedKeys, res.HealthyKeys = len(quarKeys), healthy
	if len(quarKeys) == 0 {
		db.Close()
		return fail("no key fails over the quarantined table %s", res.Rotted)
	}
	if healthy == 0 {
		db.Close()
		return fail("quarantine of %s leaked: every key fails", res.Rotted)
	}
	probe := []byte(fmt.Sprintf("probe-%d", cfg.Seed))
	if err := db.Put(probe, []byte("alive")); err != nil {
		db.Close()
		return fail("store not writable after quarantine: %v", err)
	}
	if err := db.Close(); err != nil {
		return fail("close after quarantine: %v", err)
	}

	// The quarantine is manifest state: reopen and re-audit — the same keys
	// must fail, the same keys must serve.
	db, err = lsm.Open(scrubGeometry(ffs))
	if err != nil {
		return fail("reopen after quarantine: %v", err)
	}
	defer db.Close()
	if got := db.Stats().QuarantinedTables; got != 1 {
		return fail("QuarantinedTables after reopen = %d, want 1", got)
	}
	quarKeys2, healthy2, err := auditScrubState(db, expected)
	if err != nil {
		return fail("after reopen: %v", err)
	}
	if len(quarKeys2) != len(quarKeys) || healthy2 != healthy {
		return fail("quarantine scope changed across reopen: %d/%d keys failed, want %d/%d",
			len(quarKeys2), healthy2, len(quarKeys), healthy)
	}
	for key := range quarKeys2 {
		if !quarKeys[key] {
			return fail("key %s quarantined only after reopen", key)
		}
	}
	if val, err := db.Get(probe); err != nil || string(val) != "alive" {
		return fail("post-quarantine write lost across reopen: %q, %v", val, err)
	}

	// Paranoid leg: on a fresh store a lying device garbles one output
	// write per stage; verify-before-install must discard and rebuild each
	// before the manifest references it, leaving a fully clean tree.
	rejections, err := runParanoidLeg(cfg)
	res.ParanoidRejections = rejections
	if err != nil {
		return fail("%v", err)
	}
	return res, nil
}

// runParanoidLeg exercises Options.ParanoidChecks against silent output
// corruption on both table-producing paths (flush and compaction),
// returning the number of outputs the verify-before-install pass rejected.
func runParanoidLeg(cfg ScrubConfig) (int64, error) {
	inner := storage.NewMemFS()
	ffs := storage.NewSeededFaultFS(inner, cfg.Seed+1)
	opts := scrubGeometry(ffs)
	opts.ScrubInterval = 0 // this leg is about install-time verification
	opts.ParanoidChecks = true
	db, err := lsm.Open(opts)
	if err != nil {
		return 0, fmt.Errorf("paranoid open: %v", err)
	}
	defer db.Close()

	// One garbled flush output, then one garbled compaction output.
	ffs.ArmFault(storage.Fault{Op: storage.FaultWrite, Suffix: ".sst", N: 1, Garble: true})
	expected, err := loadScrubWorkload(db, cfg)
	if err != nil {
		return 0, fmt.Errorf("paranoid load: %w", err)
	}
	ffs.ArmFault(storage.Fault{Op: storage.FaultWrite, Suffix: ".sst", N: 1, Garble: true})
	// Manual compactions return the verify rejection instead of consuming
	// the background retry budget; the rejection leaves the inputs intact,
	// so a retry against the now-honest device must succeed.
	cerr := db.CompactLevel(0)
	if cerr != nil {
		cerr = db.CompactLevel(0)
	}
	if cerr != nil {
		return 0, fmt.Errorf("paranoid compaction retry: %w", cerr)
	}

	s := db.Stats()
	if s.ParanoidRejections < 2 {
		return s.ParanoidRejections, fmt.Errorf(
			"ParanoidRejections = %d, want >= 2 (one garbled flush + one garbled compaction output)",
			s.ParanoidRejections)
	}
	if s.QuarantinedTables != 0 {
		return s.ParanoidRejections, fmt.Errorf(
			"%d tables quarantined: a garbled output reached the manifest", s.QuarantinedTables)
	}
	// Nothing corrupted may be installed: a full scrub comes back clean and
	// every key reads back exactly.
	rep, err := db.Scrub()
	if err != nil {
		return s.ParanoidRejections, fmt.Errorf("paranoid scrub: %w", err)
	}
	if rep.Corruptions != 0 || rep.Skipped != 0 {
		return s.ParanoidRejections, fmt.Errorf(
			"scrub of paranoid tree: %d corruptions, %d skipped, want a clean pass", rep.Corruptions, rep.Skipped)
	}
	for key, want := range expected {
		val, err := db.Get([]byte(key))
		if err != nil || string(val) != want {
			return s.ParanoidRejections, fmt.Errorf("paranoid key %s = %q, %v; want %q", key, val, err, want)
		}
	}
	return s.ParanoidRejections, nil
}
