package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pcplsm/internal/core"
	"pcplsm/internal/lsm"
	"pcplsm/internal/storage"
)

// Crash-consistency harness: run a randomized multi-writer workload over a
// FaultFS, cut power at a seeded random operation count, render the durable
// crash image, reopen the store on it, and verify the recovery contract:
//
//   - every acknowledged batch (Write returned nil under SyncWAL) is fully
//     visible after reopen;
//   - the at-most-one in-flight batch per writer is all-or-nothing: either
//     every entry of it landed or none did;
//   - no other data appears, recovery tolerates the torn WAL tail the cut
//     leaves behind, and a full scan completes without error.
//
// Every random choice derives from CrashConfig.Seed, so a failing cycle
// replays exactly by seed.

// CrashConfig parameterizes one power-cut cycle.
type CrashConfig struct {
	// Seed drives the workload, the cut point, and the crash image's torn
	// tails.
	Seed int64
	// Writers is the number of concurrent writer goroutines (default 3).
	Writers int
	// Serial uses the serial commit path instead of group commit.
	Serial bool
	// SCP compacts with the sequential baseline procedure. The default
	// exercises the live pipeline: ModePCP with parallel stage workers and
	// the adaptive governor, so a power cut can land mid-pipeline with
	// multiple output writers in flight.
	SCP bool
	// Policy pins the compaction policy for the cycle (the empty default
	// runs leveling with the self-tuner enabled). Every policy must uphold
	// the same recovery contract: policies change only which compaction
	// runs, never the durability semantics — and trivial moves add a new
	// manifest-record shape (a same-number table changing levels) the cut
	// must be able to land around.
	Policy string
	// MaxKeys is the per-writer keyspace size (default 16; small so batches
	// overwrite and delete hot keys).
	MaxKeys int
	// ValueLen pads values to roughly this many bytes (default 64).
	ValueLen int
	// CutOps cuts power at the Nth file-system operation after Open; 0
	// picks a seeded value in [30, 600).
	CutOps int
}

func (c CrashConfig) withDefaults() CrashConfig {
	if c.Writers <= 0 {
		c.Writers = 3
	}
	if c.MaxKeys <= 0 {
		c.MaxKeys = 16
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 64
	}
	return c
}

// CrashCycleResult summarizes one power-cut/reopen cycle.
type CrashCycleResult struct {
	Seed        int64
	Serial      bool
	SCP         bool
	CutOps      int
	AckedBatch  int
	Inflight    int
	KeysChecked int
}

// crashWriterLog is what one writer goroutine observed: the batches whose
// Write was acknowledged, in commit order, plus the single unacknowledged
// batch in flight when the cut hit (nil if its last Write succeeded).
type crashWriterLog struct {
	acked    []crashBatch
	inflight *crashBatch
}

// crashBatch is one logical batch: puts and deletes over the writer's
// disjoint keyspace, with values unique per (seed, writer, batch).
type crashBatch struct {
	puts map[string]string
	dels map[string]bool
}

// crashGeometry returns DB options sized so a short workload exercises WAL
// rotation, flushes, and compactions. The PCP leg (scp=false) runs parallel
// stage workers so the cut can tear a compaction with several output
// writers mid-file.
func crashGeometry(fs storage.FS, serial, scp bool, policy string) lsm.Options {
	opts := lsm.Options{
		FS:                  fs,
		MemtableSize:        8 << 10,
		TableSize:           8 << 10,
		BlockSize:           512,
		L0CompactionTrigger: 2,
		SyncWAL:             true,
		DisableGroupCommit:  serial,
		CompactionPolicy:    policy,
		BackgroundRetry:     lsm.BackgroundRetryPolicy{Max: 2, BaseDelay: 200 * time.Microsecond},
	}
	if scp {
		opts.Compaction.Mode = core.ModeSCP
	} else {
		opts.Compaction.Mode = core.ModePCP
		opts.Compaction.ComputeParallel = 2
		opts.Compaction.IOParallel = 2
		opts.PipelineComputeTokens = 4
		opts.PipelineIOTokens = 4
	}
	return opts
}

// RunCrashCycle executes one seeded power-cut/reopen cycle and verifies the
// recovery contract, returning an error describing the first violation.
func RunCrashCycle(cfg CrashConfig) (CrashCycleResult, error) {
	cfg = cfg.withDefaults()
	res := CrashCycleResult{Seed: cfg.Seed, Serial: cfg.Serial, SCP: cfg.SCP}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cutOps := cfg.CutOps
	if cutOps <= 0 {
		cutOps = 30 + rng.Intn(570)
	}
	res.CutOps = cutOps

	inner := storage.NewMemFS()
	ffs := storage.NewSeededFaultFS(inner, cfg.Seed)
	db, err := lsm.Open(crashGeometry(ffs, cfg.Serial, cfg.SCP, cfg.Policy))
	if err != nil {
		return res, fmt.Errorf("initial open: %w", err)
	}
	ffs.ArmFault(storage.Fault{Op: storage.FaultAny, N: cutOps, Cut: true})

	// Writers hammer disjoint keyspaces until the cut surfaces as a write
	// error. At most one batch per writer is ever unacknowledged.
	logs := make([]*crashWriterLog, cfg.Writers)
	done := make(chan int, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		logs[w] = &crashWriterLog{}
		go func(w int, wrng *rand.Rand) {
			defer func() { done <- w }()
			log := logs[w]
			for batchSeq := 0; ; batchSeq++ {
				cb := crashBatch{puts: map[string]string{}, dels: map[string]bool{}}
				var b lsm.Batch
				n := 1 + wrng.Intn(4)
				for len(cb.puts)+len(cb.dels) < n {
					key := fmt.Sprintf("w%d-k%03d", w, wrng.Intn(cfg.MaxKeys))
					if cb.puts[key] != "" || cb.dels[key] {
						continue // keys within a batch must be distinct
					}
					if wrng.Intn(100) < 15 {
						cb.dels[key] = true
						b.Delete([]byte(key))
					} else {
						val := fmt.Sprintf("s%d-w%d-b%d-%s-", cfg.Seed, w, batchSeq, key)
						for len(val) < cfg.ValueLen {
							val += "x"
						}
						cb.puts[key] = val
						b.Put([]byte(key), []byte(val))
					}
				}
				log.inflight = &cb
				if err := db.Write(&b); err != nil {
					return // cut (or poison): cb stays in flight
				}
				log.inflight = nil
				log.acked = append(log.acked, cb)
			}
		}(w, rand.New(rand.NewSource(cfg.Seed*1000+int64(w))))
	}
	for i := 0; i < cfg.Writers; i++ {
		<-done
	}
	if !ffs.Down() {
		return res, errors.New("writers stopped before the power cut fired")
	}
	_ = db.Close() // post-cut close: every sync is rejected, nothing becomes durable

	img, err := ffs.CrashImage()
	if err != nil {
		return res, fmt.Errorf("rendering crash image: %w", err)
	}
	db2, err := lsm.Open(crashGeometry(img, cfg.Serial, cfg.SCP, cfg.Policy))
	if err != nil {
		return res, fmt.Errorf("reopen after cut: %w", err)
	}
	defer db2.Close()

	for _, log := range logs {
		res.AckedBatch += len(log.acked)
		if log.inflight != nil {
			res.Inflight++
		}
	}
	checked, err := verifyCrashState(db2, logs)
	res.KeysChecked = checked
	if err != nil {
		return res, fmt.Errorf("seed %d (serial=%v, scp=%v, cut at op %d): %w",
			cfg.Seed, cfg.Serial, cfg.SCP, cutOps, err)
	}
	return res, nil
}

// verifyCrashState checks the reopened store against every writer's log.
func verifyCrashState(db *lsm.DB, logs []*crashWriterLog) (int, error) {
	// Replay acked batches per writer into the expected final state; the
	// keyspaces are disjoint, so one flat map suffices. present=false marks
	// a key that was deleted (or never written).
	type state struct {
		present bool
		value   string
	}
	expected := map[string]state{}
	for _, log := range logs {
		for _, cb := range log.acked {
			for k, v := range cb.puts {
				expected[k] = state{present: true, value: v}
			}
			for k := range cb.dels {
				expected[k] = state{}
			}
		}
	}

	checked := 0
	get := func(key string) (state, error) {
		val, err := db.Get([]byte(key))
		switch {
		case err == nil:
			return state{present: true, value: string(val)}, nil
		case errors.Is(err, lsm.ErrNotFound):
			return state{}, nil
		default:
			return state{}, fmt.Errorf("Get(%s) after reopen: %w", key, err)
		}
	}

	// Acked data not touched by an in-flight batch must match exactly.
	inflightKeys := map[string]bool{}
	for _, log := range logs {
		if log.inflight == nil {
			continue
		}
		for k := range log.inflight.puts {
			inflightKeys[k] = true
		}
		for k := range log.inflight.dels {
			inflightKeys[k] = true
		}
	}
	for key, want := range expected {
		if inflightKeys[key] {
			continue
		}
		got, err := get(key)
		if err != nil {
			return checked, err
		}
		checked++
		if got != want {
			return checked, fmt.Errorf("acked write lost: key %s = %+v, want %+v", key, got, want)
		}
	}

	// Each in-flight batch must be all-or-nothing: every key whose old and
	// new states differ must agree on one side.
	for w, log := range logs {
		if log.inflight == nil {
			continue
		}
		sawOld, sawNew := false, false
		verdict := func(key string, old, new state) error {
			if old == new {
				return nil // uninformative key
			}
			got, err := get(key)
			if err != nil {
				return err
			}
			checked++
			switch got {
			case new:
				sawNew = true
			case old:
				sawOld = true
			default:
				return fmt.Errorf("key %s = %+v matches neither pre-batch %+v nor post-batch %+v",
					key, got, old, new)
			}
			return nil
		}
		for k, v := range log.inflight.puts {
			if err := verdict(k, expected[k], state{present: true, value: v}); err != nil {
				return checked, err
			}
		}
		for k := range log.inflight.dels {
			if err := verdict(k, expected[k], state{}); err != nil {
				return checked, err
			}
		}
		if sawOld && sawNew {
			return checked, fmt.Errorf("writer %d: in-flight batch is torn (half its entries visible)", w)
		}
	}

	// Full scan: recovery must iterate cleanly, and nothing outside the
	// workload's key universe may appear.
	union := map[string]bool{}
	for key := range expected {
		union[key] = true
	}
	for key := range inflightKeys {
		union[key] = true
	}
	it, err := db.NewIterator()
	if err != nil {
		return checked, fmt.Errorf("opening iterator after reopen: %w", err)
	}
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		if !union[string(it.Key())] {
			return checked, fmt.Errorf("unknown key %q surfaced after recovery", it.Key())
		}
	}
	if err := it.Err(); err != nil {
		return checked, fmt.Errorf("iterator after reopen: %w", err)
	}
	return checked, nil
}
