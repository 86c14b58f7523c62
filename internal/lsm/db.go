package lsm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcplsm/internal/cache"
	"pcplsm/internal/core"
	"pcplsm/internal/ikey"
	"pcplsm/internal/memtable"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
	"pcplsm/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database is closed")

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("lsm: key not found")

// heatHotThreshold is the minimum access count that marks a block key range
// hot for compaction pre-warming. 2 keeps one-pass scans (each block touched
// exactly once) from flagging the whole key space.
const heatHotThreshold = 2

// walFileName renders the name of WAL number num.
func walFileName(num uint64) string { return fmt.Sprintf("%06d.log", num) }

// DB is the LSM-tree store.
type DB struct {
	opts   Options
	fs     storage.FS
	vs     *versionSet
	bcache *cache.Cache
	heat   *cache.Heat // nil when there is no block cache
	cache  *tableCache
	man    *manifest
	stats  statsCollector

	// governor is the engine-wide pipeline token-pool pair (see
	// governor.go).
	governor *pipelineGovernor

	// penv is the picker's stable view of the engine handed to every
	// CompactionPolicy.Pick call (see policy.go).
	penv *policyEnv

	// tuner is the metrics-driven policy self-tuner; nil when
	// Options.CompactionPolicy pins a policy. tunerMu serializes its
	// window with the last-sample snapshot (leaf lock, never held with
	// db.mu).
	tunerMu       sync.Mutex
	tuner         *policyTuner
	lastTuneStats Stats

	// installMu serializes logAndApply, so the journal replays in the same
	// order the edits were applied even with concurrent installers.
	installMu sync.Mutex

	// Commit pipeline (see commit.go). commitMu serializes commit groups
	// with each other and with every WAL mutation (rotation, Close); the
	// leader holds it across WAL I/O and memtable inserts so neither
	// happens under db.mu. Lock order: commitMu → mu. writeMu guards only
	// the writer queue and is a leaf lock. commitBuf is the scratch buffer
	// for encoded records, reused across commits under commitMu.
	// visibleSeq is the watermark reads clamp to: the last sequence whose
	// group is fully in the memtable.
	commitMu   sync.Mutex
	writeMu    sync.Mutex
	writers    []*commitWriter
	commitBuf  []byte
	applyOps   []memtable.Op // scratch for staging a group's ops, reused like commitBuf
	visibleSeq atomic.Uint64

	mu        sync.Mutex
	cond      *sync.Cond
	mem       *memtable.Memtable
	imm       *memtable.Memtable
	wal       *wal.Writer
	walNum    uint64
	immWalNum uint64
	seq       uint64
	// policy is the active compaction policy; the tuner may swap it
	// mid-run (guarded by mu, like the cursors it steers).
	policy     CompactionPolicy
	compactPtr [NumLevels][]byte // round-robin compaction cursors (journaled in the manifest)
	snapshots  map[uint64]int    // live snapshot seq -> refcount
	closed     bool
	bgErr      error
	bgFailures int // consecutive transient background failures (retry budget)

	// quarantine is the set of table numbers isolated by a failed integrity
	// verification (scrub, read trip, or compaction-input attribution).
	// Mutations replace the map copy-on-write under mu, so read paths may
	// capture the reference under mu and consult it lock-free afterwards.
	// Journaled in the manifest so the scoped degradation survives reopen.
	quarantine map[uint64]struct{}
	// scrubCursor is the last table number the background scrub worker
	// verified (journaled so a cycle resumes across reopen). Guarded by mu.
	scrubCursor uint64

	// Scheduler claim state (see scheduler.go); guarded by mu. It is the
	// only record of in-flight background work: Stats() reads its gauges
	// from here.
	flushing       bool                // a memtable flush is in flight
	claims         []*compactionClaim  // in-flight compactions
	maxConcurrent  int64               // high-water mark of flushing + len(claims)
	pendingOutputs map[uint64]struct{} // compaction outputs not yet installed

	// zombies are tables dropped from the current version whose files are
	// retained because a pinned old version may still read them; swept when
	// pins are released. Guarded by zmu (not mu: the read path releases
	// pins and must not contend with writers).
	zmu     sync.Mutex
	zombies map[uint64]struct{}

	bgWork chan struct{}
	bgQuit chan struct{}
	bgWg   sync.WaitGroup
}

// newMemtable builds an empty memtable with the DB's shard count.
func (db *DB) newMemtable() *memtable.Memtable {
	return memtable.New(memtable.Config{Shards: db.opts.MemtableShards})
}

// Open opens (creating or recovering) a DB on opts.FS.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.FS == nil {
		return nil, errors.New("lsm: Options.FS is required")
	}
	var blockCache *cache.Cache
	var heat *cache.Heat
	if opts.BlockCacheBytes > 0 {
		blockCache = cache.New(opts.BlockCacheBytes)
		heat = cache.NewHeat()
	}
	db := &DB{
		opts:           opts,
		fs:             opts.FS,
		vs:             newVersionSet(),
		bcache:         blockCache,
		heat:           heat,
		cache:          newTableCache(opts.FS, blockCache, heat),
		snapshots:      map[uint64]int{},
		quarantine:     map[uint64]struct{}{},
		pendingOutputs: map[uint64]struct{}{},
		zombies:        map[uint64]struct{}{},
		bgWork:         make(chan struct{}, opts.BackgroundWorkers),
		bgQuit:         make(chan struct{}),
	}
	db.mem = db.newMemtable()
	db.cond = sync.NewCond(&db.mu)
	// Resolve the compaction policy. An empty name starts at leveling
	// with the self-tuner active; a pinned name disables the tuner.
	polName, tune := opts.CompactionPolicy, opts.CompactionPolicy == ""
	if polName == "" {
		polName = PolicyLeveling
	}
	pol, err := newPolicy(polName)
	if err != nil {
		return nil, err
	}
	db.policy = pol
	db.penv = &policyEnv{opts: &db.opts, free: db.levelPairFree, cursor: &db.compactPtr,
		heat: heat, quarantined: db.quarantinedLocked}
	if tune {
		db.tuner = newPolicyTuner(polName, tunerWindow, heat != nil)
	}
	db.governor = newPipelineGovernor(opts.PipelineComputeTokens,
		max(1, opts.PipelineIOTokens))

	if err := db.recover(); err != nil {
		return nil, err
	}

	// Start the fresh WAL.
	num := db.vs.NewFileNum()
	f, err := db.fs.Create(walFileName(num))
	if err != nil {
		return nil, err
	}
	db.wal = wal.NewWriter(f)
	db.walNum = num

	// Flush anything recovered from old WALs so the manifest snapshot below
	// supersedes every old log.
	if db.mem.Count() > 0 {
		meta, ferr := db.writeLevel0Table(db.mem)
		if ferr != nil {
			return nil, fmt.Errorf("lsm: flushing recovered memtable: %w", ferr)
		}
		// Not journaled: the snapshot below supersedes the old manifest.
		if err := db.applyEdit(&VersionEdit{Added: map[int][]*TableMeta{0: {meta}}}); err != nil {
			return nil, err
		}
		db.mem = db.newMemtable()
	}

	// Compact the whole recovered state into one snapshot edit and install
	// it by atomic rename. A crash at any instant leaves either the old
	// manifest — with the old WALs it implies still on disk, since obsolete
	// files are only removed below — or the complete new one. This also
	// bounds manifest growth across restarts.
	if err := rewriteManifest(db.fs, db.snapshotEdit(num)); err != nil {
		return nil, err
	}
	man, err := openManifest(db.fs)
	if err != nil {
		return nil, err
	}
	db.man = man
	db.visibleSeq.Store(db.seq)
	db.removeObsoleteFiles()

	for i := 0; i < opts.BackgroundWorkers; i++ {
		db.bgWg.Add(1)
		go db.backgroundWorker()
	}
	if opts.ScrubInterval > 0 {
		db.bgWg.Add(1)
		go db.scrubLoop()
	}
	return db, nil
}

// recover rebuilds state from the manifest and replays every leftover WAL
// (in file-number order) into the memtable. Open then flushes the replayed
// data and deletes the old logs.
func (db *DB) recover() error {
	haveManifest, err := storage.Exists(db.fs, manifestName)
	if err != nil {
		return fmt.Errorf("lsm: probing manifest: %w", err)
	}
	if haveManifest {
		edits, err := replayManifest(db.fs)
		if err != nil {
			return fmt.Errorf("lsm: replaying manifest: %w", err)
		}
		for _, e := range edits {
			if err := db.applyEdit(e); err != nil {
				return fmt.Errorf("lsm: replaying manifest: %w", err)
			}
		}
		if err := db.vs.Current().checkInvariants(); err != nil {
			return err
		}
		// Quarantined tables that a later compaction or manual intervention
		// removed from the tree are no longer a hazard.
		db.pruneQuarantineLocked()
	}

	// Replay surviving logs oldest-first. Flushes delete superseded logs,
	// so whatever is on disk is live.
	names, err := db.fs.List()
	if err != nil {
		return err
	}
	var logNums []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".log") {
			if n, perr := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64); perr == nil {
				logNums = append(logNums, n)
				db.vs.bumpFileNum(n)
			}
		}
		// Crash leftovers (half-written flush/compaction outputs that never
		// made the manifest) must still reserve their numbers, or a new
		// table allocation could collide with a stale file.
		if strings.HasSuffix(name, ".sst") {
			if n, perr := parseTableNum(name); perr == nil {
				db.vs.bumpFileNum(n)
			}
		}
	}
	sort.Slice(logNums, func(i, j int) bool { return logNums[i] < logNums[j] })
	for _, num := range logNums {
		recs, rerr := wal.ReadAllRecords(db.fs, walFileName(num))
		for _, rec := range recs {
			// A record that passed its checksum but does not decode was
			// written that way: skipping it would silently drop every later
			// record of this log, so the open fails instead.
			seq, entries, derr := decodeBatch(rec)
			if derr != nil {
				return fmt.Errorf("lsm: replaying WAL %d: %w", num, derr)
			}
			for i, e := range entries {
				s := seq + uint64(i)
				if e.kind == ikey.KindDelete {
					db.mem.Delete(s, e.key)
				} else {
					db.mem.Put(s, e.key, e.val)
				}
				if s > db.seq {
					db.seq = s
				}
			}
		}
		// A torn tail is expected after a crash: keep the prefix, stop at
		// damage, and let any structural error other than corruption fail
		// the open.
		if rerr != nil && !errors.Is(rerr, wal.ErrCorrupt) {
			return fmt.Errorf("lsm: replaying WAL %d: %w", num, rerr)
		}
	}
	return nil
}

// Close stops background work, syncs the WAL, and releases resources. Data
// already acknowledged is recoverable via WAL + manifest replay.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()

	close(db.bgQuit)
	db.bgWg.Wait()

	var first error
	// commitMu excludes an in-flight group's WAL append; any leader that
	// starts after `closed` was set bails before touching the WAL.
	db.commitMu.Lock()
	if err := db.wal.Close(); err != nil && first == nil {
		first = err
	}
	db.commitMu.Unlock()
	if err := db.man.close(); err != nil && first == nil {
		first = err
	}
	db.cache.Close()
	return first
}

// setBgErr installs the sticky background error (first one wins) and wakes
// every stalled writer and waiter so they observe the read-only state.
func (db *DB) setBgErr(err error) {
	db.mu.Lock()
	db.setBgErrLocked(err)
	db.mu.Unlock()
}

// setBgErrLocked is setBgErr with db.mu already held.
func (db *DB) setBgErrLocked(err error) {
	if db.bgErr == nil {
		db.bgErr = err
		db.stats.update(func(s *Stats) { s.BackgroundErrors++ })
		db.opts.logf("lsm: store degraded to read-only: %v", err)
	}
	db.cond.Broadcast()
}

// noteReadError classifies an error bubbling up a read path. Detected
// corruption is counted and degrades the store to read-only (sticky
// ErrCorruption); the read itself fails with an error matching both
// ErrCorruption and the underlying sentinel. Reads are never gated on the
// sticky state, so other keys stay readable.
func (db *DB) noteReadError(err error) error {
	if err == nil || errors.Is(err, ErrCorruption) {
		return err
	}
	if isCorruptionErr(err) {
		db.stats.update(func(s *Stats) { s.CorruptionsDetected++ })
		wrapped := &backgroundError{cause: err, corruption: true}
		db.setBgErr(wrapped)
		return wrapped
	}
	return err
}

// noteTableReadError classifies an error from reading one specific table.
// Unlike noteReadError, the corruption is attributable, so only that table
// is quarantined — the store stays writable and every other range keeps
// serving — instead of the store-wide read-only degradation reserved for
// unattributable damage (WAL, manifest).
func (db *DB) noteTableReadError(num uint64, err error) error {
	if err == nil || errors.Is(err, ErrCorruption) {
		return err
	}
	if isCorruptionErr(err) {
		db.stats.update(func(s *Stats) { s.CorruptionsDetected++ })
		db.quarantineTable(num, err)
		return &quarantinedError{num: num}
	}
	return err
}

// quarantineTable isolates table num after a failed verification: reads
// covering its range fail with ErrQuarantined, the compaction picker skips
// it, and the manifest journals it so the quarantine survives reopen.
func (db *DB) quarantineTable(num uint64, cause error) {
	db.mu.Lock()
	_, dup := db.quarantine[num]
	db.mu.Unlock()
	if dup {
		return
	}
	db.opts.logf("lsm: table %s quarantined: %v", TableFileName(num), cause)
	// The error needs no handling here: a failed append turns the store
	// read-only inside logAndApply, and reads that trip on the unquarantined
	// table still fail with a typed corruption error.
	_ = db.logAndApply(&VersionEdit{Quarantined: []uint64{num}})
}

// logAndApply installs e: it journals the edit durably, then applies it in
// memory, so memory never holds a change a reopen would not replay. A
// failed append leaves memory untouched and degrades the store to read-only
// (the journal may now end in a torn line). installMu keeps the journal
// order equal to the order edits are applied across concurrent installers.
func (db *DB) logAndApply(e *VersionEdit) error {
	db.installMu.Lock()
	defer db.installMu.Unlock()
	if err := db.man.append(e); err != nil {
		db.setBgErr(&backgroundError{cause: err})
		return err
	}
	db.mu.Lock()
	err := db.applyEdit(e)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return db.vs.Current().checkInvariants()
}

// applyEdit folds e into memory: the version, the file-number allocator,
// the sequence checkpoint, the compaction cursors, the quarantine set and
// the scrub cursor. It is the only caller of vs.Apply. An invalid edit is
// rejected before anything changes. Called with db.mu held (or from the
// single-threaded Open).
func (db *DB) applyEdit(e *VersionEdit) error {
	if err := e.validate(); err != nil {
		return err
	}
	for _, tables := range e.Added {
		for _, t := range tables {
			db.vs.bumpFileNum(t.Num)
		}
	}
	if e.WALNum > 0 {
		db.vs.bumpFileNum(e.WALNum)
	}
	if e.NextFile > 0 {
		db.vs.bumpFileNum(e.NextFile - 1)
	}
	db.seq = max(db.seq, e.Seq)
	for level, ptr := range e.CompactPtr {
		if len(ptr) > 0 {
			db.compactPtr[level] = append([]byte(nil), ptr...)
		}
	}
	if len(e.Quarantined) > 0 {
		// Replace the set copy-on-write: read paths hold the old map
		// without the lock.
		next := make(map[uint64]struct{}, len(db.quarantine)+len(e.Quarantined))
		for n := range db.quarantine {
			next[n] = struct{}{}
		}
		for _, n := range e.Quarantined {
			next[n] = struct{}{}
		}
		db.quarantine = next
	}
	if e.ScrubCursor > 0 {
		db.scrubCursor = e.ScrubCursor
	}
	db.vs.Apply(e)
	return nil
}

// snapshotEdit renders the whole current state as one edit whose replay
// into an empty store reproduces it, with walNum as the live WAL. Open
// journals it as the manifest's only line.
func (db *DB) snapshotEdit(walNum uint64) *VersionEdit {
	e := &VersionEdit{Added: map[int][]*TableMeta{}, WALNum: walNum, Seq: db.seq,
		NextFile: db.vs.NewFileNum(), CompactPtr: map[int][]byte{}, ScrubCursor: db.scrubCursor}
	for level, tables := range db.vs.Current().Levels {
		if len(tables) > 0 {
			e.Added[level] = tables
		}
	}
	for level, ptr := range db.compactPtr {
		if ptr != nil {
			e.CompactPtr[level] = ptr
		}
	}
	for num := range db.quarantine {
		e.Quarantined = append(e.Quarantined, num)
	}
	sort.Slice(e.Quarantined, func(i, j int) bool { return e.Quarantined[i] < e.Quarantined[j] })
	return e
}

// quarantinedLocked reports whether table num is quarantined. Called with
// db.mu held (the compaction picker runs under mu).
func (db *DB) quarantinedLocked(num uint64) bool {
	_, q := db.quarantine[num]
	return q
}

// anyQuarantinedLocked reports whether any listed table is quarantined.
// Called with db.mu held.
func (db *DB) anyQuarantinedLocked(tables []*TableMeta) bool {
	for _, t := range tables {
		if db.quarantinedLocked(t.Num) {
			return true
		}
	}
	return false
}

// pruneQuarantineLocked drops quarantine entries for tables no longer in
// the current version. Called with db.mu held (or single-threaded Open).
func (db *DB) pruneQuarantineLocked() {
	if len(db.quarantine) == 0 {
		return
	}
	next := map[uint64]struct{}{}
	v := db.vs.Current()
	for l := range v.Levels {
		for _, t := range v.Levels[l] {
			if _, q := db.quarantine[t.Num]; q {
				next[t.Num] = struct{}{}
			}
		}
	}
	db.quarantine = next
}

// nudge wakes the background loop.
func (db *DB) nudge() {
	select {
	case db.bgWork <- struct{}{}:
	default:
	}
}

// Put writes a key/value pair.
func (db *DB) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return db.Write(&b)
}

// Delete removes a key.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return db.Write(&b)
}

// Write is implemented by the commit pipeline in commit.go.

// makeRoomForWrite rotates the memtable and stalls writers, mirroring
// LevelDB: the "write pauses" the paper attributes to slow compaction
// happen here. Called with db.mu held by a group leader that also holds
// commitMu (WAL rotation requires both).
func (db *DB) makeRoomForWrite() error {
	for {
		switch {
		case db.bgErr != nil:
			return db.bgErr
		case db.closed:
			return ErrClosed
		case db.mem.ApproximateSize() < db.opts.MemtableSize &&
			(db.opts.DisableAutoCompaction ||
				len(db.vs.Current().Levels[0]) < db.opts.L0StallTrigger):
			// With auto-compaction disabled nothing will ever drain L0, so
			// the stall would deadlock; the caller asked for manual control.
			return nil
		case db.mem.ApproximateSize() < db.opts.MemtableSize:
			// Too many L0 tables: stall until compaction drains them.
			db.stallWait()
		case db.imm != nil:
			// Previous memtable still flushing: stall.
			db.stallWait()
		default:
			// Rotate: seal the memtable and switch to a fresh WAL.
			num := db.vs.NewFileNum()
			f, err := db.fs.Create(walFileName(num))
			if err != nil {
				return err
			}
			if err := db.wal.Close(); err != nil {
				f.Close()
				return err
			}
			db.imm = db.mem
			db.immWalNum = db.walNum
			db.mem = db.newMemtable()
			db.wal = wal.NewWriter(f)
			db.walNum = num
			db.nudge()
		}
	}
}

// stallWait blocks the writer until background work changes state.
func (db *DB) stallWait() {
	start := time.Now()
	db.nudge()
	db.cond.Wait()
	db.stats.update(func(s *Stats) {
		s.StallCount++
		s.StallTime += time.Since(start)
	})
}

// seqLatest asks getAt/newIteratorAt for the newest committed state. It is
// distinct from 0, which is a valid (empty-view) snapshot sequence: a
// snapshot taken before the first write must stay empty, not track the live
// DB.
const seqLatest = ^uint64(0)

// Get returns the current value of key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.getAt(key, seqLatest) }

// getAt reads key at sequence seq (seqLatest = newest). The read view is
// the memtable pointers + pinned version + the visible-sequence watermark;
// entries of an in-flight commit group sit above the watermark and are
// skipped, so reads never wait on commit I/O.
func (db *DB) getAt(key []byte, seq uint64) ([]byte, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	mem, imm, v, snap := db.mem, db.imm, db.vs.Acquire(), db.visibleSeq.Load()
	quar := db.quarantine // copy-on-write map: safe to read without mu
	if seq != seqLatest {
		snap = seq
	}
	db.mu.Unlock()
	// The pin keeps every table file of v on disk even if a concurrent
	// compaction drops it from the current version mid-read.
	defer func() {
		db.vs.Release(v)
		db.sweepZombies()
	}()
	db.stats.addGet()

	if val, deleted, ok := mem.Get(key, snap); ok {
		if deleted {
			return nil, ErrNotFound
		}
		return append([]byte(nil), val...), nil
	}
	if imm != nil {
		if val, deleted, ok := imm.Get(key, snap); ok {
			if deleted {
				return nil, ErrNotFound
			}
			return append([]byte(nil), val...), nil
		}
	}

	search := ikey.SearchKey(key, snap)
	// L0: newest table first; ranges may overlap.
	l0 := v.Levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		t := l0[i]
		if !userInRange(key, t) {
			continue
		}
		if _, q := quar[t.Num]; q {
			return nil, &quarantinedError{num: t.Num}
		}
		val, deleted, ok, err := db.searchTable(t, key, search)
		if err != nil {
			return nil, db.noteTableReadError(t.Num, err)
		}
		if ok {
			if deleted {
				return nil, ErrNotFound
			}
			return val, nil
		}
	}
	// Deeper levels: at most one candidate table per level.
	for level := 1; level < NumLevels; level++ {
		tables := v.Levels[level]
		idx := sort.Search(len(tables), func(i int) bool {
			return string(ikey.UserKey(tables[i].Largest)) >= string(key)
		})
		if idx == len(tables) || !userInRange(key, tables[idx]) {
			continue
		}
		if _, q := quar[tables[idx].Num]; q {
			return nil, &quarantinedError{num: tables[idx].Num}
		}
		val, deleted, ok, err := db.searchTable(tables[idx], key, search)
		if err != nil {
			return nil, db.noteTableReadError(tables[idx].Num, err)
		}
		if ok {
			if deleted {
				return nil, ErrNotFound
			}
			return val, nil
		}
	}
	return nil, ErrNotFound
}

// userInRange reports whether user key k may be inside table t.
func userInRange(k []byte, t *TableMeta) bool {
	return string(k) >= string(ikey.UserKey(t.Smallest)) &&
		string(k) <= string(ikey.UserKey(t.Largest))
}

// searchTable looks key up in one table at snapshot search key.
func (db *DB) searchTable(t *TableMeta, key, search []byte) (val []byte, deleted, ok bool, err error) {
	h, err := db.cache.Get(t.Num)
	if err != nil {
		return nil, false, false, err
	}
	defer h.Close()
	r := h.Reader()
	if !r.MayContain(key) {
		// The Bloom filter proves the key absent: skip the block reads.
		db.stats.addFilterSkip()
		return nil, false, false, nil
	}
	// Closing the iterator returns it (and its scratch buffers) to the
	// reader's pool, so the value must be copied out before the deferred
	// Close runs — the alias may point into pooled scratch when the block
	// came straight from disk rather than the cache.
	it := r.NewIter()
	defer it.Close()
	if !it.Seek(search) {
		return nil, false, false, it.Err()
	}
	k := it.Key()
	if string(ikey.UserKey(k)) != string(key) {
		return nil, false, false, nil
	}
	if ikey.KindOf(k) == ikey.KindDelete {
		return nil, true, true, nil
	}
	return append([]byte(nil), it.Value()...), false, true, nil
}

// Stats returns a snapshot of cumulative statistics, with every gauge
// sampled from its one home: the scheduler claims and quarantine set under
// mu, the live memtable, the block cache and the governor's pools.
func (db *DB) Stats() Stats {
	s := db.stats.snapshot()
	db.mu.Lock()
	mem := db.mem
	s.ActivePolicy = db.policy.Name()
	if db.flushing {
		s.FlushesInFlight = 1
	}
	s.CompactionsInFlight = int64(len(db.claims))
	for _, c := range db.claims {
		s.CompactionsInFlightByLevel[c.level]++
		s.ClaimedBytes += c.bytes
	}
	s.MaxConcurrentBackground = db.maxConcurrent
	s.QuarantinedTables = int64(len(db.quarantine))
	db.mu.Unlock()
	if mem != nil {
		ms := mem.Stats()
		s.MemtableShards = int64(ms.Shards)
		s.MemtableEntries = ms.Entries
		s.MemtableMaxShardEntries = ms.MaxShardEntries
		s.MemtableMinShardEntries = ms.MinShardEntries
		s.MemtableArenaReserved = ms.ArenaReserved
		s.MemtableArenaUsed = ms.ArenaUsed
	}
	if db.bcache != nil {
		s.BlockCacheHits, s.BlockCacheMisses = db.bcache.Stats()
		s.BlockCacheEvictions = db.bcache.Evictions()
		s.BlockCachePrewarmed = db.bcache.Prewarmed()
		s.BlockCacheBytes = db.bcache.Size()
		s.BlockCacheCapacity = db.bcache.Capacity()
	}
	ct, it2, cl, il := db.governor.snapshot()
	s.PipelineComputeTokens = int64(ct)
	s.PipelineIOTokens = int64(it2)
	s.PipelineComputeLeased = int64(cl)
	s.PipelineIOLeased = int64(il)
	return s
}

// Version returns the current table layout (for inspection and tests).
func (db *DB) Version() *Version { return db.vs.Current() }

// Metrics returns one Stats() snapshot under the lsm_* metric names its
// fields declare.
func (db *DB) Metrics() map[string]int64 { return db.Stats().metrics() }

// Seq returns the last committed (read-visible) sequence number.
func (db *DB) Seq() uint64 { return db.visibleSeq.Load() }

// Flush forces the current memtable to disk and waits for it.
//
// Rotating the memtable/WAL pair requires commitMu (a commit group may be
// appending to the live WAL and inserting into the live memtable outside
// db.mu), but commitMu must not be held while waiting on the condition
// variable — that would block every writer behind an in-flight flush. So
// the wait happens under db.mu alone and the rotation re-checks state once
// both locks are held.
func (db *DB) Flush() error {
	for {
		db.commitMu.Lock()
		db.mu.Lock()
		if db.closed || db.bgErr != nil {
			err := firstErr(db.bgErr, ErrClosed)
			db.mu.Unlock()
			db.commitMu.Unlock()
			return err
		}
		if db.imm == nil {
			break // both locks held: rotation is safe
		}
		db.mu.Unlock()
		db.commitMu.Unlock()
		db.mu.Lock()
		for db.imm != nil && db.bgErr == nil && !db.closed {
			db.nudge()
			db.cond.Wait()
		}
		db.mu.Unlock()
	}
	if db.mem.Count() > 0 {
		num := db.vs.NewFileNum()
		f, err := db.fs.Create(walFileName(num))
		if err != nil {
			db.mu.Unlock()
			db.commitMu.Unlock()
			return err
		}
		if err := db.wal.Close(); err != nil {
			f.Close()
			db.mu.Unlock()
			db.commitMu.Unlock()
			return err
		}
		db.imm = db.mem
		db.immWalNum = db.walNum
		db.mem = db.newMemtable()
		db.wal = wal.NewWriter(f)
		db.walNum = num
	}
	db.mu.Unlock()
	db.commitMu.Unlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	for db.imm != nil && db.bgErr == nil && !db.closed {
		db.nudge()
		db.cond.Wait()
	}
	if db.closed {
		return firstErr(db.bgErr, ErrClosed)
	}
	return db.bgErr
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// WaitIdle blocks until no flush is pending and no level is over threshold.
func (db *DB) WaitIdle() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		if db.bgErr != nil {
			return db.bgErr
		}
		if db.closed {
			return ErrClosed
		}
		if db.imm == nil && !db.backgroundBusy() && db.pickCompaction(db.vs.Current()) == nil {
			return nil
		}
		db.nudge()
		db.cond.Wait()
	}
}

// writeLevel0Table dumps a memtable into a new table file and returns its
// metadata. (Unlike compaction outputs, a flush is always a single table,
// like LevelDB.) With Options.ParanoidChecks the finished table is
// re-read and verified against its metadata before the caller may
// reference it; a rejected output is deleted and the flush fails with a
// retryable outputVerifyError.
func (db *DB) writeLevel0Table(mem *memtable.Memtable) (*TableMeta, error) {
	meta, err := db.buildLevel0Table(mem)
	if err != nil || !db.opts.ParanoidChecks {
		return meta, err
	}
	if verr := db.verifyOutput(meta); verr != nil {
		db.fs.Remove(meta.FileName())
		return nil, verr
	}
	return meta, nil
}

// buildLevel0Table is writeLevel0Table without the paranoid re-read.
func (db *DB) buildLevel0Table(mem *memtable.Memtable) (*TableMeta, error) {
	num := db.vs.NewFileNum()
	name := TableFileName(num)
	raw, err := db.fs.Create(name)
	if err != nil {
		return nil, err
	}
	// Buffer block writes so devices see large sequential requests, the
	// way LevelDB's buffered table builder behaves.
	f := storage.NewBufferedFile(raw, 0)
	w := sstable.NewWriter(f, sstable.WriterOptions{
		BlockSize:        db.opts.BlockSize,
		RestartInterval:  db.opts.RestartInterval,
		Codec:            db.opts.Codec,
		Compare:          ikey.Compare,
		FilterBitsPerKey: db.opts.BloomBitsPerKey,
		FilterKey:        ikey.UserKey,
	})
	it := mem.NewIter()
	for ok := it.First(); ok; ok = it.Next() {
		if err := w.Add(it.Key(), it.Value()); err != nil {
			f.Close()
			db.fs.Remove(name)
			return nil, err
		}
	}
	tm, err := w.Finish()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		db.fs.Remove(name)
		return nil, err
	}
	return &TableMeta{Num: num, Size: tm.FileSize, Entries: tm.Entries,
		Smallest: tm.Smallest, Largest: tm.Largest, Digest: tm.Digest}, nil
}

// flushMemtable writes imm to L0 and installs it.
func (db *DB) flushMemtable(imm *memtable.Memtable, oldWAL uint64) error {
	if imm.Count() == 0 {
		db.fs.Remove(walFileName(oldWAL))
		return nil
	}
	start := time.Now()
	meta, err := db.writeLevel0Table(imm)
	if err != nil {
		return err
	}
	// Checkpoint the sequence number: this flush deletes its WAL, and the
	// live WAL may stay empty until the next write, so without the
	// checkpoint a reopen would resurrect a lower sequence counter — new
	// writes would then be shadowed by the (higher-sequenced) flushed data.
	db.mu.Lock()
	seqNow := db.seq
	db.mu.Unlock()
	if err := db.logAndApply(&VersionEdit{
		Added:    map[int][]*TableMeta{0: {meta}},
		Seq:      seqNow,
		NextFile: db.vs.NewFileNum(),
	}); err != nil {
		return err
	}
	db.fs.Remove(walFileName(oldWAL))
	db.stats.update(func(s *Stats) {
		s.Flushes++
		s.FlushBytes += meta.Size
		s.FlushWall += time.Since(start)
	})
	db.opts.logf("lsm: flushed memtable to %s (%d bytes, L0 now %d tables)",
		meta.FileName(), meta.Size, len(db.vs.Current().Levels[0]))
	// More work may now be due.
	db.nudge()
	return nil
}

// pickedCompaction describes the inputs chosen for one compaction.
type pickedCompaction struct {
	level   int // source level; outputs land on level+1
	inputs  []*TableMeta
	overlap []*TableMeta
}

// pickCompaction delegates to the active compaction policy (policy.go):
// trigger scoring and input selection are the policy's axes. Called with
// db.mu held (the policy reads compactPtr and the claim sets through
// db.penv).
func (db *DB) pickCompaction(v *Version) *pickedCompaction {
	return db.policy.Pick(db.penv, v)
}

// ActivePolicy returns the name of the compaction policy currently in
// effect (the pinned one, or whatever the self-tuner last selected).
func (db *DB) ActivePolicy() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.policy.Name()
}

// setPolicy installs the named policy if it differs from the active one.
func (db *DB) setPolicy(name string) {
	db.mu.Lock()
	if db.policy.Name() == name {
		db.mu.Unlock()
		return
	}
	pol, err := newPolicy(name)
	if err != nil {
		db.mu.Unlock()
		return
	}
	db.policy = pol
	// WaitIdle's idle test asks the policy for a pick: wake any waiter that
	// saw work under the old policy, which the new one may not schedule.
	db.cond.Broadcast()
	db.mu.Unlock()
	db.stats.update(func(s *Stats) { s.PolicySwitches++ })
	db.opts.logf("lsm: compaction policy switched to %s", name)
	db.nudge()
}

// maybeTunePolicy feeds the self-tuner one sample of metric deltas (one
// per completed background unit) and applies any policy switch it
// orders. No-op when the policy is pinned.
func (db *DB) maybeTunePolicy() {
	if db.tuner == nil {
		return
	}
	db.tunerMu.Lock()
	cur := db.stats.snapshot()
	sample := deltaSample(db.lastTuneStats, cur)
	db.lastTuneStats = cur
	want := db.tuner.observe(sample)
	db.tunerMu.Unlock()
	db.setPolicy(want)
}

// keyRange returns the union range of tables.
func keyRange(tables []*TableMeta) (smallest, largest []byte) {
	for _, t := range tables {
		if smallest == nil || ikey.Compare(t.Smallest, smallest) < 0 {
			smallest = t.Smallest
		}
		if largest == nil || ikey.Compare(t.Largest, largest) > 0 {
			largest = t.Largest
		}
	}
	return smallest, largest
}

// runCompaction executes a picked compaction with the configured procedure
// and installs the result. The claim's pipeline lease (when present)
// overrides the configured stage widths with the granted budget and
// attaches the pilot that resizes the pipeline mid-run within that budget.
func (db *DB) runCompaction(pc *pickedCompaction, claim *compactionClaim) error {
	all := append(append([]*TableMeta(nil), pc.inputs...), pc.overlap...)
	sources := make([]*core.TableSource, 0, len(all))
	handles := make([]tableHandle, 0, len(all))
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	for _, t := range all {
		h, err := db.cache.Get(t.Num)
		if err != nil {
			// Rot in an index or footer fails the open itself, before the
			// merge reads a single block: quarantine the culprit here just as
			// a mid-merge corruption would be attributed below.
			if isCorruptionErr(err) {
				db.stats.update(func(s *Stats) { s.CorruptionsDetected++ })
				db.quarantineTable(t.Num, err)
				return &quarantineHandledError{err: err}
			}
			return err
		}
		handles = append(handles, h)
		sources = append(sources, core.NewTableSource(h.Reader()))
	}

	cfg := db.opts.Compaction
	if claim != nil && claim.lease != nil {
		cfg.ComputeParallel, cfg.IOParallel = claim.lease.widths()
		cfg.Governor = &adaptivePilot{lease: claim.lease, stats: &db.stats}
	}
	db.mu.Lock()
	cfg.RetainSeq = db.smallestSnapshot()
	db.mu.Unlock()
	// Tombstones may be dropped only if no deeper level holds the key range.
	smallest, largest := keyRange(all)
	cfg.DropTombstones = true
	v := db.vs.Current()
	for level := pc.level + 2; level < NumLevels; level++ {
		if len(v.overlapping(level, smallest, largest)) > 0 {
			cfg.DropTombstones = false
			break
		}
	}

	// Compaction-surviving cache: snapshot the read heat and have the write
	// stage hand back (still in memory, already decompressed) every output
	// block covering a hot range, inserted under the new table's identity
	// before the version edit installs. Cold output is never admitted, and
	// at most half the cache may be pre-warmed by one compaction so a large
	// merge cannot flush an unrelated working set.
	if db.heat != nil {
		// Cap the hot set at a quarter of the cache's block count: only the
		// hottest ranges are worth re-admitting, and a loose set would churn
		// the cache with zipf-tail blocks that were touched a couple of times.
		hotLimit := int(db.bcache.Capacity() / int64(4*db.opts.BlockSize))
		if hotLimit < 1 {
			hotLimit = 1
		}
		if hot := db.heat.Snapshot(heatHotThreshold, hotLimit); hot.Len() > 0 {
			var warmedBytes atomic.Int64
			budget := db.bcache.Capacity() / 2
			cfg.HotRange = func(first, last []byte) bool {
				return hot.AnyInRange(ikey.UserKey(first), ikey.UserKey(last))
			}
			cfg.WarmOutput = func(name string, offset int64, plain []byte) {
				if warmedBytes.Add(int64(len(plain))) > budget {
					return
				}
				if num, perr := parseTableNum(name); perr == nil {
					db.bcache.PutWarm(cache.Key{ID: num, Offset: offset}, plain)
				}
			}
		}
	}

	// Register every output as pending so obsolete-file sweeps leave the
	// half-built tables alone; the registration is dropped once the edit is
	// installed (or the compaction fails).
	var outNums []uint64
	sink := func() (string, storage.File, error) {
		num := db.vs.NewFileNum()
		db.mu.Lock()
		db.pendingOutputs[num] = struct{}{}
		outNums = append(outNums, num)
		db.mu.Unlock()
		name := TableFileName(num)
		f, err := db.fs.Create(name)
		return name, f, err
	}
	defer func() {
		db.mu.Lock()
		for _, num := range outNums {
			delete(db.pendingOutputs, num)
		}
		db.mu.Unlock()
	}()
	res, err := core.Run(cfg, sources, sink)
	if err != nil {
		err = fmt.Errorf("lsm: compaction L%d→L%d: %w", pc.level, pc.level+1, err)
		if isCorruptionErr(err) {
			// Attribute the damage: re-verify each input table and quarantine
			// the ones that fail. If a culprit is found the failure is handled
			// in scope — the next pick skips the quarantined table — so the
			// worker retries instead of degrading the whole store.
			if db.quarantineCorruptInputs(all, err) > 0 {
				return &quarantineHandledError{err: err}
			}
		}
		return err
	}

	outMetas := make([]*TableMeta, 0, len(res.Outputs))
	for _, o := range res.Outputs {
		num, perr := parseTableNum(o.Name)
		if perr != nil {
			return perr
		}
		outMetas = append(outMetas, &TableMeta{Num: num, Size: o.Meta.FileSize, Entries: o.Meta.Entries,
			Smallest: o.Meta.Smallest, Largest: o.Meta.Largest, Digest: o.Meta.Digest})
	}
	if db.opts.ParanoidChecks {
		// Verify-before-install: every output must re-read clean before the
		// version edit references any of them. The inputs are still live, so
		// a rejection discards the whole output set and retries the unit.
		for _, meta := range outMetas {
			if verr := db.verifyOutput(meta); verr != nil {
				for _, m := range outMetas {
					db.fs.Remove(m.FileName())
				}
				return verr
			}
		}
	}
	edit := &VersionEdit{
		Added:   map[int][]*TableMeta{pc.level + 1: outMetas},
		Deleted: map[int][]uint64{},
	}
	for _, t := range pc.inputs {
		edit.Deleted[pc.level] = append(edit.Deleted[pc.level], t.Num)
	}
	for _, t := range pc.overlap {
		edit.Deleted[pc.level+1] = append(edit.Deleted[pc.level+1], t.Num)
	}
	if pc.level > 0 && len(pc.inputs) > 0 {
		edit.CompactPtr = map[int][]byte{pc.level: pc.inputs[len(pc.inputs)-1].Largest}
	}
	if err := db.logAndApply(edit); err != nil {
		return err
	}

	// Defer input deletion through the zombie sweep: a pinned old version
	// (an in-flight Get) may still be reading these tables.
	db.zmu.Lock()
	for _, t := range all {
		db.zombies[t.Num] = struct{}{}
	}
	db.zmu.Unlock()
	db.sweepZombies()
	db.stats.addCompaction(res.Stats)
	db.opts.logf("lsm: compacted L%d→L%d: %v", pc.level, pc.level+1, res.Stats)
	db.nudge()
	return nil
}

// trivialMoveOK reports whether a picked compaction can be installed as a
// metadata-only move: a single input table with zero next-level overlap
// needs no merging, so rewriting it through the pipeline is pure write
// amplification. Moving into the bottom level is excluded while no
// snapshot is open, because there a rewrite is not pure waste — it is the
// only chance to drop tombstones and shadowed versions (with a snapshot
// open the rewrite would have to retain them anyway, so the move loses
// nothing). Called with db.mu held (reads db.snapshots).
func (db *DB) trivialMoveOK(pc *pickedCompaction) bool {
	if db.opts.DisableTrivialMove {
		return false
	}
	if len(pc.inputs) != 1 || len(pc.overlap) != 0 {
		return false
	}
	if pc.level+1 == NumLevels-1 && len(db.snapshots) == 0 {
		return false
	}
	return true
}

// runTrivialMove installs pc's single input one level down as a pure
// version edit — no table I/O, no new file number, no cache eviction. The
// caller holds pc's claim and releases it afterwards, exactly like
// runCompaction.
func (db *DB) runTrivialMove(pc *pickedCompaction) error {
	t := pc.inputs[0]
	edit := &VersionEdit{
		Added:   map[int][]*TableMeta{pc.level + 1: {t}},
		Deleted: map[int][]uint64{pc.level: {t.Num}},
	}
	if pc.level > 0 {
		edit.CompactPtr = map[int][]byte{pc.level: t.Largest}
	}
	if err := db.logAndApply(edit); err != nil {
		return err
	}
	db.stats.update(func(s *Stats) {
		s.TrivialMoves++
		s.TrivialMoveBytes += t.Size
	})
	db.opts.logf("lsm: trivial move: table %s L%d→L%d (%d bytes, no rewrite)",
		t.FileName(), pc.level, pc.level+1, t.Size)
	db.nudge()
	return nil
}

// CompactLevel synchronously compacts one unit of work from the given level
// into the next, regardless of thresholds. It is the hook experiments use
// to measure isolated compactions.
func (db *DB) CompactLevel(level int) error {
	if level < 0 || level >= NumLevels-1 {
		return fmt.Errorf("lsm: cannot compact level %d", level)
	}
	db.mu.Lock()
	pc, claim, werr := db.waitClaimCompaction(func(v *Version) *pickedCompaction {
		if len(v.Levels[level]) == 0 {
			return nil
		}
		// The same round-robin cursor the background picker uses, so manual
		// level compactions rotate through the level (and advance the
		// persisted cursor) exactly like automatic ones.
		return pickInputs(db.penv, v, level, cursorPick)
	})
	db.mu.Unlock()
	if werr != nil || pc == nil {
		return werr
	}

	err := db.runCompaction(pc, claim)
	db.mu.Lock()
	db.releaseCompaction(claim)
	db.mu.Unlock()
	return err
}

// CompactRange synchronously compacts every table whose user-key range
// intersects [begin, end] down through the levels, level by level. Nil
// bounds are open: CompactRange(nil, nil) rewrites the whole tree, which
// drops all shadowed versions and (at the bottom) tombstones — the manual
// "major compaction" of LevelDB.
func (db *DB) CompactRange(begin, end []byte) error {
	if err := db.Flush(); err != nil {
		return err
	}
	var smallest, largest []byte
	if begin != nil {
		smallest = ikey.Make(begin, ikey.MaxSeq, ikey.KindSet)
	}
	if end != nil {
		largest = ikey.Make(end, 0, 0)
	}
	for level := 0; level < NumLevels-1; level++ {
		db.mu.Lock()
		pc, claim, werr := db.waitClaimCompaction(func(v *Version) *pickedCompaction {
			inputs := v.overlapping(level, smallest, largest)
			if len(inputs) == 0 {
				return nil
			}
			pc := &pickedCompaction{level: level, inputs: inputs}
			lo, hi := keyRange(pc.inputs)
			pc.overlap = v.overlapping(level+1, lo, hi)
			if db.anyQuarantinedLocked(pc.inputs) || db.anyQuarantinedLocked(pc.overlap) {
				// Merging through a quarantined table would only re-read the
				// damage; leave its slice of the range alone.
				return nil
			}
			return pc
		})
		db.mu.Unlock()
		if werr != nil {
			return werr
		}
		if pc == nil {
			// Nothing overlapping at this level.
			continue
		}

		err := db.runCompaction(pc, claim)
		db.mu.Lock()
		db.releaseCompaction(claim)
		db.mu.Unlock()
		if err != nil {
			return err
		}
		// One pass per level suffices: the inputs moved down.
	}
	return nil
}

// sweepZombies deletes dropped tables that no live (current or pinned)
// version references any more. Cheap no-op when nothing is pending.
func (db *DB) sweepZombies() {
	db.zmu.Lock()
	defer db.zmu.Unlock()
	for num := range db.zombies {
		if db.vs.anyLiveContains(num) {
			continue
		}
		delete(db.zombies, num)
		db.cache.Evict(num)
		db.fs.Remove(TableFileName(num))
	}
}

// parseTableNum extracts the file number from a table file name.
func parseTableNum(name string) (uint64, error) {
	base := strings.TrimSuffix(name, ".sst")
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("lsm: bad table name %q", name)
	}
	return n, nil
}

// removeObsoleteFiles deletes table and log files not referenced by the
// current version or the live WAL (crash leftovers). Tables claimed by
// in-flight compactions and their not-yet-installed outputs are pinned.
func (db *DB) removeObsoleteFiles() {
	names, err := db.fs.List()
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true, walFileName(db.walNum): true}
	db.mu.Lock()
	for _, c := range db.claims {
		for _, num := range c.files {
			live[TableFileName(num)] = true
		}
	}
	for num := range db.pendingOutputs {
		live[TableFileName(num)] = true
	}
	db.mu.Unlock()
	db.zmu.Lock()
	for num := range db.zombies {
		live[TableFileName(num)] = true
	}
	db.zmu.Unlock()
	v := db.vs.Current()
	for l := range v.Levels {
		for _, t := range v.Levels[l] {
			live[t.FileName()] = true
		}
	}
	for _, name := range names {
		if live[name] {
			continue
		}
		if strings.HasSuffix(name, ".sst") || strings.HasSuffix(name, ".log") {
			db.fs.Remove(name)
		}
	}
}
