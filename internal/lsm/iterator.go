package lsm

import (
	"bytes"

	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
)

// scanReadahead is the number of data blocks each table iterator in a scan
// prefetches (fetch + verify + decompress, pipelined) ahead of the current
// position, overlapping scan I/O with iteration. Point reads never read
// ahead.
const scanReadahead = 2

// internalIterator is the movement contract shared by memtable and table
// iterators over internal keys.
type internalIterator interface {
	First() bool
	Next() bool
	Seek(internalKey []byte) bool
	Valid() bool
	Key() []byte
	Value() []byte
	Err() error
}

// memIterAdapter adds the (always-nil) Err method to a memtable iterator.
type memIterAdapter struct {
	it interface {
		First() bool
		Next() bool
		Seek([]byte) bool
		Valid() bool
		Key() []byte
		Value() []byte
	}
}

func (a memIterAdapter) First() bool        { return a.it.First() }
func (a memIterAdapter) Next() bool         { return a.it.Next() }
func (a memIterAdapter) Seek(k []byte) bool { return a.it.Seek(k) }
func (a memIterAdapter) Valid() bool        { return a.it.Valid() }
func (a memIterAdapter) Key() []byte        { return a.it.Key() }
func (a memIterAdapter) Value() []byte      { return a.it.Value() }
func (a memIterAdapter) Err() error         { return nil }

// quarRange is the user-key span of a quarantined table the scan must not
// silently step over.
type quarRange struct {
	lo, hi []byte
	num    uint64
}

// Iterator is a forward scan over the user-visible key space at a fixed
// snapshot: one (newest) version per user key, tombstones elided.
type Iterator struct {
	db      *DB // for corruption classification on source errors
	sources []internalIterator
	srcNum  []uint64          // table number per source (0 = memtable)
	readers []*sstable.Reader // owned table readers, closed on Close
	titers  []*sstable.Iter   // table iterators, closed (prefetches drained) first
	snap    uint64

	// quar holds the ranges of quarantined tables in the snapshot. A scan
	// whose window touches one fails with ErrQuarantined rather than
	// emitting a view that silently omits the quarantined data. low is the
	// scan window's lower bound (the Seek target); lowSet false means
	// unbounded (First). See touchesQuarantine.
	quar   []quarRange
	low    []byte
	lowSet bool

	key, val []byte
	skip     []byte // scratch for the just-emitted user key in Next
	valid    bool
	err      error
}

// fail records a source error (classifying corruption via the DB, scoped
// to the offending table when known) and invalidates the iterator.
func (it *Iterator) fail(err error, num uint64) bool {
	if it.db != nil {
		if num != 0 {
			err = it.db.noteTableReadError(num, err)
		} else {
			err = it.db.noteReadError(err)
		}
	}
	it.err = err
	it.valid = false
	return false
}

// NewIterator returns a scan over the DB at the current sequence number.
// The iterator sees a consistent snapshot regardless of concurrent writes
// and compactions. Close must be called to release table handles.
func (db *DB) NewIterator() (*Iterator, error) { return db.newIteratorAt(seqLatest) }

// newIteratorAt builds a scan at sequence seq (seqLatest = newest).
func (db *DB) newIteratorAt(seq uint64) (*Iterator, error) {
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
	// Pin v while the private table handles are opened: a concurrent
	// compaction must not delete a table between the version capture and
	// its Open below. Once the handles exist they outlive file removal on
	// every FS implementation, so the pin can be dropped on return.
	defer func() {
		db.vs.Release(v)
		db.sweepZombies()
	}()

	it := &Iterator{db: db, snap: snap}
	it.sources = append(it.sources, memIterAdapter{it: mem.NewIter()})
	it.srcNum = append(it.srcNum, 0)
	if imm != nil {
		it.sources = append(it.sources, memIterAdapter{it: imm.NewIter()})
		it.srcNum = append(it.srcNum, 0)
	}
	// The iterator opens private readers so that compactions deleting input
	// tables cannot invalidate it mid-scan (open handles outlive removal on
	// every FS implementation). Quarantined tables get no reader — their
	// user-key ranges are recorded instead, and any scan window touching
	// one fails with ErrQuarantined (see touchesQuarantine).
	for level := 0; level < NumLevels; level++ {
		for _, t := range v.Levels[level] {
			if _, q := quar[t.Num]; q {
				it.quar = append(it.quar, quarRange{
					lo:  append([]byte(nil), ikey.UserKey(t.Smallest)...),
					hi:  append([]byte(nil), ikey.UserKey(t.Largest)...),
					num: t.Num,
				})
				continue
			}
			f, err := db.fs.Open(t.FileName())
			if err != nil {
				it.Close()
				return nil, err
			}
			// NewReader owns f: on failure it closes the handle itself.
			r, err := sstable.NewReader(f, ikey.Compare)
			if err != nil {
				it.Close()
				return nil, db.noteTableReadError(t.Num, err)
			}
			it.readers = append(it.readers, r)
			ti := r.NewIter()
			ti.SetReadahead(scanReadahead)
			it.titers = append(it.titers, ti)
			it.sources = append(it.sources, ti)
			it.srcNum = append(it.srcNum, t.Num)
		}
	}
	return it, nil
}

// Close releases the iterator's table handles. Table iterators are closed
// first: that drains their in-flight readahead fetches, so no prefetch can
// race a reader close below.
func (it *Iterator) Close() error {
	var first error
	for _, ti := range it.titers {
		ti.Close()
	}
	it.titers = nil
	for _, r := range it.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	it.readers = nil
	it.sources = nil
	it.srcNum = nil
	it.valid = false
	return first
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Key returns the current user key (owned by the iterator).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (owned by the iterator).
func (it *Iterator) Value() []byte { return it.val }

// First positions at the smallest user key.
func (it *Iterator) First() bool {
	it.low, it.lowSet = nil, false
	for i, s := range it.sources {
		s.First()
		if err := s.Err(); err != nil {
			return it.fail(err, it.srcNum[i])
		}
	}
	return it.findNext(nil)
}

// Seek positions at the first user key >= target.
func (it *Iterator) Seek(target []byte) bool {
	it.low = append(it.low[:0], target...)
	it.lowSet = true
	sk := ikey.SearchKey(target, it.snap)
	for i, s := range it.sources {
		s.Seek(sk)
		if err := s.Err(); err != nil {
			return it.fail(err, it.srcNum[i])
		}
	}
	return it.findNext(nil)
}

// Next advances to the next user key.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	it.skip = append(it.skip[:0], it.key...)
	return it.findNext(it.skip)
}

// minSource returns the index of the source with the smallest current
// internal key, or -1 when all are exhausted.
func (it *Iterator) minSource() int {
	best := -1
	for i, s := range it.sources {
		if !s.Valid() {
			continue
		}
		if best < 0 || ikey.Compare(s.Key(), it.sources[best].Key()) < 0 {
			best = i
		}
	}
	return best
}

// findNext advances to the newest visible version of the next user key,
// skipping the key skipUser (the one just emitted), versions newer than the
// snapshot, shadowed versions, and tombstones.
func (it *Iterator) findNext(skipUser []byte) bool {
	for {
		i := it.minSource()
		if i < 0 {
			// Exhausted: the scan walked to the end of the key space, so it
			// crossed every quarantined range at or beyond its start.
			if r := it.touchesQuarantine(nil, true); r != nil {
				return it.failQuarantined(r)
			}
			it.valid = false
			return false
		}
		s := it.sources[i]
		k := s.Key()
		user := ikey.UserKey(k)
		switch {
		case ikey.Seq(k) > it.snap,
			skipUser != nil && string(user) == string(skipUser):
			s.Next()
		case ikey.KindOf(k) == ikey.KindDelete:
			// Tombstone: skip every remaining version of this user key.
			skipUser = append(skipUser[:0], user...)
			s.Next()
		default:
			// Emitting this key certifies every key in [low, user] was merged
			// from all sources — impossible if a quarantined range sits in
			// that window (its table has no source), so fail instead of
			// silently omitting the quarantined data.
			if r := it.touchesQuarantine(user, false); r != nil {
				return it.failQuarantined(r)
			}
			it.key = append(it.key[:0], user...)
			it.val = append(it.val[:0], s.Value()...)
			it.valid = true
			return true
		}
		if err := s.Err(); err != nil {
			return it.fail(err, it.srcNum[i])
		}
	}
}

// touchesQuarantine returns a quarantined range intersecting the scan
// window [low, upper] (upperInf = unbounded above), or nil. Emitted keys
// only grow, so checking the latest upper bound covers the whole scan: the
// first touch fails the iterator permanently.
func (it *Iterator) touchesQuarantine(upper []byte, upperInf bool) *quarRange {
	for i := range it.quar {
		r := &it.quar[i]
		if it.lowSet && bytes.Compare(r.hi, it.low) < 0 {
			continue // entirely below the scan window
		}
		if upperInf || bytes.Compare(r.lo, upper) <= 0 {
			return r
		}
	}
	return nil
}

// failQuarantined invalidates the iterator with a scoped ErrQuarantined.
// The table was already quarantined, so no DB-level classification runs.
func (it *Iterator) failQuarantined(r *quarRange) bool {
	it.err = &quarantinedError{num: r.num}
	it.valid = false
	return false
}
