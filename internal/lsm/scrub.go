package lsm

import (
	"bytes"
	"fmt"
	"time"

	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
)

// Integrity subsystem: every table records a whole-file digest in the
// manifest at creation (computed incrementally by the writers — no extra
// read pass). Three consumers re-read tables through the untrusted path and
// compare against that record:
//
//   - the background scrub worker (scrubLoop), which cycles over live
//     tables detecting at-rest bit-rot before a foreground read trips on
//     it — rate-limited, yielding to compaction I/O via the governor's
//     token pool, resumable across reopen via a manifest-journaled cursor;
//   - verify-before-install (verifyOutput), the Options.ParanoidChecks
//     re-read of every fresh flush/compaction output before the version
//     edit references it;
//   - compaction-input attribution (quarantineCorruptInputs), which turns
//     a mid-merge corruption failure into a scoped quarantine of the
//     specific damaged input instead of a store-wide degradation.
//
// A table that fails verification is quarantined (quarantineTable in
// db.go): reads over its range fail with ErrQuarantined, the policy layer
// stops picking it, everything else keeps serving.

// TableScrubResult is the outcome of verifying one table.
type TableScrubResult struct {
	Num     uint64 `json:"num"`
	Level   int    `json:"level"`
	Size    int64  `json:"size"`
	Entries int64  `json:"entries"`
	// BytesVerified is how much of the physical file image was read back
	// and digested (equals Size on a complete pass).
	BytesVerified int64 `json:"bytes_verified"`
	OK            bool  `json:"ok"`
	// Quarantined reports that this verification failed and isolated the
	// table; Skipped that the table was already quarantined and not re-read.
	Quarantined bool   `json:"quarantined,omitempty"`
	Skipped     bool   `json:"skipped,omitempty"`
	Err         string `json:"err,omitempty"`
}

// ScrubReport summarizes one full manual scrub cycle (DB.Scrub).
type ScrubReport struct {
	Tables      []TableScrubResult `json:"tables"`
	Verified    int                `json:"verified"`
	Bytes       int64              `json:"bytes"`
	Corruptions int                `json:"corruptions"`
	Skipped     int                `json:"skipped"`
}

// verifyTableFile re-reads one table from the device and checks it against
// its manifest metadata: block checksums, decompression, strict internal
// key order, index agreement (all via sstable.Verify), then entry count,
// file size, bounds, and the whole-file digest recorded at creation. It
// opens a private handle so the verification observes what is on the
// device now, not what the table cache retained from when the file was
// healthy.
func (db *DB) verifyTableFile(meta *TableMeta) (sstable.VerifyStats, error) {
	f, err := db.fs.Open(meta.FileName())
	if err != nil {
		return sstable.VerifyStats{}, err
	}
	// NewReader owns f: on failure it closes the handle itself.
	r, err := sstable.NewReader(f, ikey.Compare)
	if err != nil {
		return sstable.VerifyStats{}, err
	}
	defer r.Close()
	vs, err := r.Verify()
	if err != nil {
		return vs, err
	}
	return vs, checkTableMeta(meta, vs)
}

// checkTableMeta compares a verification pass against the manifest record.
// Mismatches wrap sstable.ErrBadTable so they classify as corruption.
func checkTableMeta(meta *TableMeta, vs sstable.VerifyStats) error {
	switch {
	case vs.Entries != meta.Entries:
		return fmt.Errorf("%w: %s holds %d entries, manifest records %d",
			sstable.ErrBadTable, meta.FileName(), vs.Entries, meta.Entries)
	case meta.Size != 0 && vs.Bytes != meta.Size:
		return fmt.Errorf("%w: %s is %d bytes, manifest records %d",
			sstable.ErrBadTable, meta.FileName(), vs.Bytes, meta.Size)
	case meta.Digest != 0 && vs.Digest != meta.Digest:
		// Digest 0 means the table predates digest recording; every block
		// checksum still verified above, so the pass is not weakened much.
		return fmt.Errorf("%w: %s file digest %#08x, manifest records %#08x",
			sstable.ErrBadTable, meta.FileName(), vs.Digest, meta.Digest)
	case vs.Entries > 0 && (!bytes.Equal(vs.Smallest, meta.Smallest) || !bytes.Equal(vs.Largest, meta.Largest)):
		return fmt.Errorf("%w: %s bounds [%q, %q] disagree with manifest [%q, %q]",
			sstable.ErrBadTable, meta.FileName(), vs.Smallest, vs.Largest,
			meta.Smallest, meta.Largest)
	}
	return nil
}

// verifyOutput is the Options.ParanoidChecks verify-before-install pass: a
// freshly written flush/compaction output is re-read from the device and
// checked against the metadata the write stage produced, so a pipeline
// bug, torn write, or lying device is caught before the manifest ever
// references the file. Any failure is wrapped as a retryable
// outputVerifyError — the caller deletes the rejected output and the
// inputs are still intact, so the unit reruns like a transient failure.
func (db *DB) verifyOutput(meta *TableMeta) error {
	_, err := db.verifyTableFile(meta)
	db.stats.update(func(s *Stats) {
		s.ParanoidVerifies++
		if err != nil {
			s.ParanoidRejections++
		}
	})
	if err != nil {
		db.opts.logf("lsm: paranoid check rejected output %s: %v", meta.FileName(), err)
		return &outputVerifyError{err: err}
	}
	return nil
}

// quarantineCorruptInputs attributes a corruption error raised mid-merge:
// each input table is re-verified and the ones that fail are quarantined.
// Returns how many tables were quarantined; zero means the damage could
// not be pinned on an input (the caller then falls back to the store-wide
// degradation).
func (db *DB) quarantineCorruptInputs(tables []*TableMeta, cause error) int {
	n := 0
	for _, t := range tables {
		if _, err := db.verifyTableFile(t); err != nil && isCorruptionErr(err) {
			db.stats.update(func(s *Stats) { s.CorruptionsDetected++ })
			db.quarantineTable(t.Num, err)
			n++
		}
	}
	if n > 0 {
		db.opts.logf("lsm: compaction corruption attributed: %d input table(s) quarantined (%v)", n, cause)
	}
	return n
}

// scrubTable verifies one live table, quarantining it on corruption. The
// caller must hold a version pin covering t so the file cannot be deleted
// mid-verification.
func (db *DB) scrubTable(t *TableMeta, level int) TableScrubResult {
	res := TableScrubResult{Num: t.Num, Level: level, Size: t.Size, Entries: t.Entries}
	vs, err := db.verifyTableFile(t)
	res.BytesVerified = vs.Bytes
	corrupt := isCorruptionErr(err)
	db.stats.update(func(s *Stats) {
		s.ScrubTablesVerified++
		s.ScrubBytesVerified += vs.Bytes
		if corrupt {
			s.ScrubCorruptions++
			s.CorruptionsDetected++
		}
	})
	if err == nil {
		res.OK = true
		return res
	}
	res.Err = err.Error()
	if corrupt {
		db.quarantineTable(t.Num, err)
		res.Quarantined = true
	}
	// Non-corruption errors (a transient injected read fault, say) leave
	// the table alone; the next cycle re-verifies it.
	return res
}

// nextScrubTarget picks the live, non-quarantined table with the smallest
// number above the cursor; with none left it wraps to the smallest overall
// and reports the wrap (one full cycle completed). Called with db.mu held.
func nextScrubTarget(v *Version, cursor uint64, quar map[uint64]struct{}) (t *TableMeta, level int, wrapped bool) {
	var above, any *TableMeta
	var aboveLevel, anyLevel int
	for l := range v.Levels {
		for _, tt := range v.Levels[l] {
			if _, q := quar[tt.Num]; q {
				continue
			}
			if any == nil || tt.Num < any.Num {
				any, anyLevel = tt, l
			}
			if tt.Num > cursor && (above == nil || tt.Num < above.Num) {
				above, aboveLevel = tt, l
			}
		}
	}
	if above != nil {
		return above, aboveLevel, false
	}
	return any, anyLevel, any != nil
}

// scrubStep verifies the next table in cursor order, returning how many
// bytes it read (0 when there was nothing to do or the governor had no
// I/O headroom — scrubbing always yields to compaction I/O).
func (db *DB) scrubStep() int64 {
	if !db.governor.tryLeaseIO() {
		db.stats.update(func(s *Stats) { s.GovernorDenials++ })
		return 0
	}
	defer db.governor.returnIO()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0
	}
	v := db.vs.Acquire()
	t, level, wrapped := nextScrubTarget(v, db.scrubCursor, db.quarantine)
	db.mu.Unlock()
	// The pin keeps t's file on disk even if a concurrent compaction drops
	// it from the current version mid-verification.
	defer func() {
		db.vs.Release(v)
		db.sweepZombies()
	}()
	if t == nil {
		return 0
	}
	if wrapped {
		db.stats.update(func(s *Stats) { s.ScrubCycles++ })
	}
	res := db.scrubTable(t, level)
	// A failed append degrades the store to read-only inside logAndApply.
	_ = db.logAndApply(&VersionEdit{ScrubCursor: t.Num})
	return res.BytesVerified
}

// scrubLoop is the background scrub worker, started by Open when
// Options.ScrubInterval > 0. Between tables it sleeps the configured
// interval plus whatever ScrubBytesPerSec demands for the bytes just read,
// so verification cannot monopolize device bandwidth.
func (db *DB) scrubLoop() {
	defer db.bgWg.Done()
	timer := time.NewTimer(db.opts.ScrubInterval)
	defer timer.Stop()
	for {
		select {
		case <-db.bgQuit:
			return
		case <-timer.C:
		}
		read := db.scrubStep()
		pause := db.opts.ScrubInterval
		if read > 0 && db.opts.ScrubBytesPerSec > 0 {
			if throttle := time.Duration(read * int64(time.Second) / db.opts.ScrubBytesPerSec); throttle > pause {
				pause = throttle
			}
		}
		timer.Reset(pause)
	}
}

// Scrub runs one full manual integrity cycle over every live table,
// synchronously and unthrottled (an explicit request should finish as fast
// as the device allows; only the background worker rate-limits and yields
// tokens). Tables that fail verification are quarantined exactly as the
// background scrubber would, and the scrub cursor is advanced past every
// table verified so a subsequent background cycle starts fresh.
func (db *DB) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return rep, ErrClosed
	}
	v := db.vs.Acquire()
	quar := db.quarantine // copy-on-write map: safe to read without mu
	db.mu.Unlock()
	defer func() {
		db.vs.Release(v)
		db.sweepZombies()
	}()
	var maxNum uint64
	for level := 0; level < NumLevels; level++ {
		for _, t := range v.Levels[level] {
			if _, q := quar[t.Num]; q {
				rep.Tables = append(rep.Tables, TableScrubResult{
					Num: t.Num, Level: level, Size: t.Size, Entries: t.Entries,
					Skipped: true, Err: "already quarantined",
				})
				rep.Skipped++
				continue
			}
			res := db.scrubTable(t, level)
			rep.Tables = append(rep.Tables, res)
			rep.Verified++
			rep.Bytes += res.BytesVerified
			if res.Quarantined {
				rep.Corruptions++
			}
			if t.Num > maxNum {
				maxNum = t.Num
			}
		}
	}
	db.stats.update(func(s *Stats) { s.ScrubCycles++ })
	if maxNum > 0 {
		_ = db.logAndApply(&VersionEdit{ScrubCursor: maxNum}) // failure: store goes read-only
	}
	return rep, nil
}
