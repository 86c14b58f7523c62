package lsm

// Background scheduler: a pool of Options.BackgroundWorkers goroutines runs
// flushes and compactions concurrently, subject to a claim-based conflict
// rule.
//
// Claims (all manipulated with db.mu held):
//
//   - A memtable flush conflicts only with another flush (there is at most
//     one immutable memtable, so this is a single `flushing` flag). A flush
//     writes a brand-new L0 table and deletes only its own WAL, so it can
//     never race a compaction on files.
//   - A compaction with source level L claims the level pair {L, L+1} and
//     every input/overlap table it will read. A second compaction may start
//     only if its level pair is disjoint from every in-flight pair and none
//     of its tables are already claimed.
//
// Level-pair disjointness is sufficient given the leveled invariants: a
// compaction at L only deletes tables at L and L+1 and only adds tables at
// L+1, so two compactions with disjoint pairs touch disjoint table sets and
// their version edits commute. Each claim's table list is checked anyway as
// a defense-in-depth check (manual CompactRange picks arbitrary input sets)
// and so obsolete-file deletion can see exactly which tables are pinned by
// in-flight work. The list of claims (db.claims) is the one record of
// in-flight compactions: the level-pair and file checks scan it, and
// Stats() counts it.
//
// Every unit installs its result through logAndApply (db.go): the version
// edit is journaled in the manifest first and applied in memory second,
// both under installMu, so the journal order always matches the in-memory
// version order, even with concurrent installers.

import (
	"slices"
	"time"

	"pcplsm/internal/core"
)

// compactionClaim records one in-flight compaction's reservations.
type compactionClaim struct {
	level int      // source level; the claim covers levels level and level+1
	files []uint64 // claimed input + overlap table numbers
	bytes int64    // total size of the claimed tables
	// lease is the compaction's slice of the pipeline governor's token
	// pools, granted with the claim and released with it. Nil when the
	// procedure is not ModePCP: the compaction then runs with its fixed
	// configured widths.
	lease *pipelineLease
}

// levelPairFree reports whether no in-flight compaction claims level or
// level+1. Called with db.mu held.
func (db *DB) levelPairFree(level int) bool {
	for _, c := range db.claims {
		if c.level <= level+1 && c.level+1 >= level {
			return false
		}
	}
	return true
}

// fileClaimed reports whether an in-flight compaction claims table num.
// Called with db.mu held.
func (db *DB) fileClaimed(num uint64) bool {
	for _, c := range db.claims {
		if slices.Contains(c.files, num) {
			return true
		}
	}
	return false
}

// noteConcurrency ratchets the high-water mark of simultaneous background
// units. Called with db.mu held after a unit is claimed.
func (db *DB) noteConcurrency() {
	n := int64(len(db.claims))
	if db.flushing {
		n++
	}
	db.maxConcurrent = max(db.maxConcurrent, n)
}

// tryClaimCompaction reserves pc's level pair and tables, returning nil if
// any of them is already claimed by in-flight work. Called with db.mu held.
func (db *DB) tryClaimCompaction(pc *pickedCompaction) *compactionClaim {
	if !db.levelPairFree(pc.level) {
		return nil
	}
	c := &compactionClaim{level: pc.level}
	for _, t := range append(append([]*TableMeta(nil), pc.inputs...), pc.overlap...) {
		if db.fileClaimed(t.Num) {
			return nil
		}
		c.files = append(c.files, t.Num)
		c.bytes += t.Size
	}
	db.claims = append(db.claims, c)
	db.noteConcurrency()
	if db.opts.Compaction.Mode == core.ModePCP {
		// Hand the claim a stage-worker budget: the baseline 1+1 is always
		// granted (the governor's leaf mutex is safe under db.mu), extras
		// only while the shared pools have headroom.
		c.lease = db.governor.acquire(
			max(1, db.opts.Compaction.ComputeParallel),
			max(1, db.opts.Compaction.IOParallel))
	}
	return c
}

// releaseCompaction drops a claim and wakes anything waiting on the
// scheduler (stalled writers, WaitIdle, conflicting manual compactions).
// Called with db.mu held.
func (db *DB) releaseCompaction(c *compactionClaim) {
	if c.lease != nil {
		c.lease.release()
	}
	db.claims = slices.DeleteFunc(db.claims, func(x *compactionClaim) bool { return x == c })
	db.cond.Broadcast()
}

// backgroundBusy reports whether any background unit is in flight. Called
// with db.mu held.
func (db *DB) backgroundBusy() bool {
	return db.flushing || len(db.claims) > 0
}

// backgroundWorker is one scheduler goroutine: it sleeps until nudged, then
// drains work units until none can start. A step error never kills the
// worker: transient failures back off and retry (the failed unit is still
// claimable — a failed flush leaves db.imm set, a failed compaction is
// re-picked), and sticky failures leave the worker idle but alive, serving
// any later reopened work.
func (db *DB) backgroundWorker() {
	defer db.bgWg.Done()
	for {
		select {
		case <-db.bgQuit:
			return
		case <-db.bgWork:
		}
		for {
			select {
			case <-db.bgQuit:
				return
			default:
			}
			did, err := db.backgroundStep()
			if err != nil {
				if db.retryBackgroundError(err) {
					continue
				}
				break
			}
			if !did {
				break
			}
			db.noteBackgroundSuccess()
			// One tuner sample per completed background unit: flushes and
			// compactions are the events that change the shape of the tree, so
			// they pace the policy self-tuning.
			db.maybeTunePolicy()
		}
	}
}

// retryBackgroundError applies the error policy to one failed background
// step, returning whether the worker should retry. Corruption and permanent
// failures turn sticky immediately; transient I/O errors consume the
// consecutive-failure budget (Options.BackgroundRetry.Max) with exponential
// backoff before escalating. Two corruption-adjacent classes stay in the
// transient lane even though a checksum sentinel sits under them: a
// verify-before-install rejection (the bad output was discarded, the
// inputs are intact) and a corruption already quarantined in scope (the
// next pick skips the isolated table). Both are checked before the
// corruption branch — their unwrap chains would otherwise match it.
func (db *DB) retryBackgroundError(err error) bool {
	switch {
	case isOutputVerifyErr(err), isQuarantineHandledErr(err):
		// Retryable: handled below with the transient budget.
	case isCorruptionErr(err):
		db.stats.update(func(s *Stats) { s.CorruptionsDetected++ })
		db.setBgErr(&backgroundError{cause: err, corruption: true})
		return false
	case isPermanentErr(err):
		db.setBgErr(&backgroundError{cause: err})
		return false
	}

	db.mu.Lock()
	db.bgFailures++
	failures := db.bgFailures
	db.mu.Unlock()
	if failures > db.opts.BackgroundRetry.Max {
		db.setBgErr(&backgroundError{cause: err})
		return false
	}
	db.stats.update(func(s *Stats) { s.BackgroundRetries++ })

	delay := db.opts.BackgroundRetry.BaseDelay
	for i := 1; i < failures && i < 7; i++ { // cap the shift at 64×
		delay *= 2
	}
	if delay > time.Second {
		delay = time.Second
	}
	db.opts.logf("lsm: background step failed (attempt %d/%d, retrying in %v): %v",
		failures, db.opts.BackgroundRetry.Max, delay, err)
	select {
	case <-db.bgQuit:
		// Shutting down: report "retry" so the worker loop's bgQuit check
		// exits cleanly without poisoning the store.
		return true
	case <-time.After(delay):
		return true
	}
}

// noteBackgroundSuccess resets the consecutive-failure budget after a
// completed background unit.
func (db *DB) noteBackgroundSuccess() {
	db.mu.Lock()
	db.bgFailures = 0
	db.mu.Unlock()
}

// backgroundStep claims and performs one unit of background work (a flush
// in preference to a compaction), returning whether anything was done.
// After claiming it nudges the pool so a sibling worker can look for a
// concurrent, non-conflicting unit.
func (db *DB) backgroundStep() (bool, error) {
	db.mu.Lock()
	if db.closed || db.bgErr != nil {
		db.mu.Unlock()
		return false, nil
	}
	if db.imm != nil && !db.flushing {
		imm, walNum := db.imm, db.immWalNum
		db.flushing = true
		db.noteConcurrency()
		db.mu.Unlock()
		db.nudge() // a compaction may be runnable alongside this flush
		err := db.flushMemtable(imm, walNum)
		db.mu.Lock()
		db.flushing = false
		if err == nil {
			db.imm = nil
		}
		db.cond.Broadcast()
		db.mu.Unlock()
		return true, err
	}
	if db.opts.DisableAutoCompaction {
		db.mu.Unlock()
		return false, nil
	}
	pc := db.pickCompaction(db.vs.Current())
	if pc == nil {
		db.mu.Unlock()
		return false, nil
	}
	claim := db.tryClaimCompaction(pc)
	if claim == nil {
		// pickCompaction already excludes claimed level pairs, so this only
		// triggers on a lost race; treat it as "no work right now".
		db.mu.Unlock()
		return false, nil
	}
	trivial := db.trivialMoveOK(pc)
	db.mu.Unlock()
	db.nudge() // more disjoint work may be runnable in parallel
	var err error
	if trivial {
		err = db.runTrivialMove(pc)
	} else {
		err = db.runCompaction(pc, claim)
	}
	db.mu.Lock()
	db.releaseCompaction(claim)
	db.mu.Unlock()
	return true, err
}

// waitClaimCompaction blocks until pc (rebuilt by pick on every retry, since
// the version may change while waiting) can be claimed, the DB closes, or
// background work fails. pick returns nil when there is nothing to do.
// Called with db.mu held; returns with db.mu held.
func (db *DB) waitClaimCompaction(pick func(v *Version) *pickedCompaction) (*pickedCompaction, *compactionClaim, error) {
	for {
		if db.closed {
			return nil, nil, ErrClosed
		}
		pc := pick(db.vs.Current())
		if pc == nil {
			return nil, nil, nil
		}
		if claim := db.tryClaimCompaction(pc); claim != nil {
			return pc, claim, nil
		}
		db.cond.Wait()
	}
}
