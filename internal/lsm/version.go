// Package lsm implements a LevelDB-style log-structured merge-tree store on
// top of the substrates: memtable (C0), WAL, SSTables, and the pluggable
// compaction engines from internal/core.
//
// Components C1…Ck are levels of SSTables. Level 0 tables may overlap each
// other (each is one memtable flush); levels ≥ 1 hold tables with disjoint
// internal key ranges. When a level exceeds its size threshold the
// compaction picker selects a table from it plus every overlapping table
// from the next level, and the configured procedure (SCP/PCP/PPCP) merges
// them downward — the data flow of the paper's Figure 2.
package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"pcplsm/internal/cache"
	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
)

// NumLevels is the number of disk components.
const NumLevels = 7

// TableMeta describes one live table in a version. The JSON tags are the
// manifest's encoding of a table.
type TableMeta struct {
	Num      uint64 `json:"num"` // file number; file name is Num.sst
	Size     int64  `json:"size"`
	Entries  int64  `json:"entries"`
	Smallest []byte `json:"smallest"` // internal keys
	Largest  []byte `json:"largest"`
	// Digest is the CRC32-C of the whole file image, recorded in the
	// manifest when the table is created (flushes and compaction outputs;
	// trivial moves carry it forward). The scrub worker and paranoid
	// verify-before-install recompute it from the device and compare.
	// 0 means "unknown" — tables journaled before digests existed.
	Digest uint32 `json:"digest,omitempty"`
}

// FileName returns the table's file name.
func (t *TableMeta) FileName() string { return TableFileName(t.Num) }

// TableFileName renders the on-disk name of table number num.
func TableFileName(num uint64) string { return fmt.Sprintf("%06d.sst", num) }

// userKeyCompare orders two internal keys by their user-key portion only.
// Range-overlap decisions MUST use this, not ikey.Compare: two tables that
// hold different versions of the same user key overlap logically even
// though their internal-key ranges are disjoint, and excluding one from a
// compaction would let dropped tombstones resurrect its older versions.
func userKeyCompare(a, b []byte) int {
	return bytes.Compare(ikey.UserKey(a), ikey.UserKey(b))
}

// overlaps reports whether the table's user-key range intersects that of
// [smallest, largest] (bounds given as internal keys).
func (t *TableMeta) overlaps(smallest, largest []byte) bool {
	if smallest != nil && userKeyCompare(t.Largest, smallest) < 0 {
		return false
	}
	if largest != nil && userKeyCompare(t.Smallest, largest) > 0 {
		return false
	}
	return true
}

// Version is an immutable snapshot of the table layout across levels.
type Version struct {
	Levels [NumLevels][]*TableMeta

	// refs counts read pins on this version (guarded by the owning
	// versionSet's mu). While pinned, the tables it references stay on
	// disk even if later versions dropped them.
	refs int
}

// clone copies the version's level slices (table pointers are shared;
// TableMeta is immutable once installed).
func (v *Version) clone() *Version {
	nv := &Version{}
	for l := range v.Levels {
		nv.Levels[l] = append([]*TableMeta(nil), v.Levels[l]...)
	}
	return nv
}

// LevelSize returns the total byte size of a level.
func (v *Version) LevelSize(level int) int64 {
	var s int64
	for _, t := range v.Levels[level] {
		s += t.Size
	}
	return s
}

// NumTables returns the total table count.
func (v *Version) NumTables() int {
	n := 0
	for l := range v.Levels {
		n += len(v.Levels[l])
	}
	return n
}

// overlapping returns the tables of level whose ranges intersect
// [smallest, largest].
func (v *Version) overlapping(level int, smallest, largest []byte) []*TableMeta {
	var out []*TableMeta
	for _, t := range v.Levels[level] {
		if t.overlaps(smallest, largest) {
			out = append(out, t)
		}
	}
	return out
}

// VersionEdit is one atomic, durable change of store state. The manifest
// journals it as one JSON line (logAndApply) and applyEdit folds it into
// memory; recovery replays every line through the same applyEdit. Zero
// fields change nothing.
type VersionEdit struct {
	Added   map[int][]*TableMeta `json:"added,omitempty"`   // level -> new tables
	Deleted map[int][]uint64     `json:"deleted,omitempty"` // level -> removed table numbers
	// WALNum points at the live WAL file after this edit.
	WALNum uint64 `json:"wal,omitempty"`
	// Seq checkpoints the sequence number (recovery resumes above it).
	Seq uint64 `json:"seq,omitempty"`
	// NextFile checkpoints the file-number allocator.
	NextFile uint64 `json:"next_file,omitempty"`
	// CompactPtr sets per-level round-robin compaction cursors (the largest
	// key compacted from that level), so file rotation resumes where it
	// left off instead of resetting on every reopen.
	CompactPtr map[int][]byte `json:"compact_ptr,omitempty"`
	// Quarantined adds table numbers that failed verification to the
	// quarantine set, so the scoped degradation survives reopen. Replay
	// keeps the union of all edits, intersected with the tables still live
	// at the end.
	Quarantined []uint64 `json:"quarantined,omitempty"`
	// ScrubCursor checkpoints the background scrub worker's position (the
	// last table number verified), so a cycle resumes where it left off
	// instead of restarting from the lowest-numbered table on reopen.
	ScrubCursor uint64 `json:"scrub_cursor,omitempty"`
}

// validate rejects an edit that names a level outside [0, NumLevels), a
// key too short to be an internal key, a table whose smallest key sorts
// after its largest, or a sequence past ikey.MaxSeq. A replayed edit is
// input from disk: a damaged manifest must fail Open with ErrCorruption,
// not panic it or a later compaction pick.
func (e *VersionEdit) validate() error {
	bad := func(what string, level int) error {
		return fmt.Errorf("%w: manifest edit: %s at level %d", ErrCorruption, what, level)
	}
	for level, tables := range e.Added {
		if level < 0 || level >= NumLevels {
			return bad("added table", level)
		}
		for _, t := range tables {
			if t == nil || !ikey.Valid(t.Smallest) || !ikey.Valid(t.Largest) ||
				ikey.Compare(t.Smallest, t.Largest) > 0 {
				return bad("malformed table", level)
			}
		}
	}
	for level := range e.Deleted {
		if level < 0 || level >= NumLevels {
			return bad("deleted table", level)
		}
	}
	for level, ptr := range e.CompactPtr {
		if level < 0 || level >= NumLevels || (len(ptr) > 0 && !ikey.Valid(ptr)) {
			return bad("compaction cursor", level)
		}
	}
	if e.Seq > ikey.MaxSeq {
		return fmt.Errorf("%w: manifest edit: sequence %d past the maximum", ErrCorruption, e.Seq)
	}
	return nil
}

// versionSet tracks the current version, applies edits, and keeps every
// old version that a reader still has pinned alive so its table files can
// be retained until the last reader releases it.
type versionSet struct {
	mu      sync.Mutex
	current *Version
	old     []*Version // superseded versions with refs > 0
	nextNum uint64
}

func newVersionSet() *versionSet {
	return &versionSet{current: &Version{}, nextNum: 1}
}

// Current returns the current immutable version.
func (vs *versionSet) Current() *Version {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.current
}

// Acquire returns the current version with a read pin. Callers must
// Release it; until then anyLiveContains reports its tables as live.
func (vs *versionSet) Acquire() *Version {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.current.refs++
	return vs.current
}

// Release drops a read pin taken by Acquire.
func (vs *versionSet) Release(v *Version) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v.refs--
	if v.refs > 0 || v == vs.current {
		return
	}
	for i, o := range vs.old {
		if o == v {
			vs.old = append(vs.old[:i], vs.old[i+1:]...)
			break
		}
	}
}

// anyLiveContains reports whether table num appears in the current version
// or any pinned old version.
func (vs *versionSet) anyLiveContains(num uint64) bool {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for _, v := range append([]*Version{vs.current}, vs.old...) {
		for l := range v.Levels {
			for _, t := range v.Levels[l] {
				if t.Num == num {
					return true
				}
			}
		}
	}
	return false
}

// NewFileNum allocates a fresh table file number.
func (vs *versionSet) NewFileNum() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	n := vs.nextNum
	vs.nextNum++
	return n
}

// bumpFileNum ensures future allocations are > num (used during recovery).
func (vs *versionSet) bumpFileNum(num uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if num >= vs.nextNum {
		vs.nextNum = num + 1
	}
}

// Apply installs an edit, producing a new current version. Levels ≥ 1 are
// kept sorted by smallest key; level 0 is kept in insertion (age) order,
// oldest first.
func (vs *versionSet) Apply(edit *VersionEdit) *Version {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.current.refs > 0 {
		vs.old = append(vs.old, vs.current)
	}
	nv := vs.current.clone()
	for level, nums := range edit.Deleted {
		dead := map[uint64]bool{}
		for _, n := range nums {
			dead[n] = true
		}
		var keep []*TableMeta
		for _, t := range nv.Levels[level] {
			if !dead[t.Num] {
				keep = append(keep, t)
			}
		}
		nv.Levels[level] = keep
	}
	for level, tables := range edit.Added {
		nv.Levels[level] = append(nv.Levels[level], tables...)
		if level > 0 {
			sort.Slice(nv.Levels[level], func(i, j int) bool {
				return ikey.Compare(nv.Levels[level][i].Smallest, nv.Levels[level][j].Smallest) < 0
			})
		}
	}
	vs.current = nv
	return nv
}

// checkInvariants verifies the level invariants of v (levels ≥ 1 sorted and
// disjoint). It is used by tests and debug assertions.
func (v *Version) checkInvariants() error {
	for l := 1; l < NumLevels; l++ {
		tables := v.Levels[l]
		for i := 1; i < len(tables); i++ {
			if ikey.Compare(tables[i-1].Largest, tables[i].Smallest) >= 0 {
				return fmt.Errorf("lsm: level %d tables %d and %d overlap: %s vs %s",
					l, tables[i-1].Num, tables[i].Num,
					ikey.String(tables[i-1].Largest), ikey.String(tables[i].Smallest))
			}
		}
	}
	return nil
}

// tableCache opens table readers on demand and caches them. Tables are
// immutable, so entries never invalidate — they are only dropped when the
// table is deleted. An optional shared block cache is attached to every
// reader it opens.
//
// Entries are reference-counted: with the concurrent background scheduler a
// compaction can delete (and Evict) a table while a point read on an older
// version still holds its reader, so eviction only marks the entry dead and
// the last user's release performs the close.
type tableCache struct {
	fs     storage.FS
	blocks *cache.Cache // nil = no block cache
	mu     sync.Mutex
	m      map[uint64]*tableEntry
}

// tableEntry is one cached reader plus its reference count. The cache
// itself holds one reference while the entry is in the map.
type tableEntry struct {
	r    *sstable.Reader
	refs int
}

// tableHandle is a caller's leased reference to a cached reader. Close it
// when done; the reader stays valid until then even if the table is evicted.
// It is a small value (no heap allocation per lease) — copy it freely, but
// Close each lease exactly once.
type tableHandle struct {
	c *tableCache
	e *tableEntry
}

// Reader returns the leased reader.
func (h tableHandle) Reader() *sstable.Reader { return h.e.r }

// Close releases the lease, closing the reader if it was evicted and this
// was the last reference.
func (h tableHandle) Close() {
	h.c.mu.Lock()
	h.e.refs--
	dead := h.e.refs == 0
	h.c.mu.Unlock()
	if dead {
		h.e.r.Close()
	}
}

func newTableCache(fs storage.FS, blocks *cache.Cache) *tableCache {
	return &tableCache{fs: fs, blocks: blocks, m: map[uint64]*tableEntry{}}
}

// Get leases a reader for table num, opening it if needed. Callers must
// Close the returned handle.
func (c *tableCache) Get(num uint64) (tableHandle, error) {
	c.mu.Lock()
	if e, ok := c.m[num]; ok {
		e.refs++
		c.mu.Unlock()
		return tableHandle{c: c, e: e}, nil
	}
	c.mu.Unlock()
	// Open outside the lock: FS opens may be slow (or simulated-slow), and
	// table numbers are never reused, so a duplicate open is only a benign
	// lost race.
	f, err := c.fs.Open(TableFileName(num))
	if err != nil {
		return tableHandle{}, err
	}
	// NewReader owns f: on failure it closes the handle itself.
	r, err := sstable.NewReader(f, ikey.Compare)
	if err != nil {
		return tableHandle{}, err
	}
	if c.blocks != nil {
		r.SetBlockCache(c.blocks, num)
	}
	c.mu.Lock()
	if e, ok := c.m[num]; ok {
		// Lost the open race; lease the winner and drop ours.
		e.refs++
		c.mu.Unlock()
		r.Close()
		return tableHandle{c: c, e: e}, nil
	}
	e := &tableEntry{r: r, refs: 2} // the cache's reference + the caller's
	c.m[num] = e
	c.mu.Unlock()
	return tableHandle{c: c, e: e}, nil
}

// Evict forgets the reader for a deleted table and drops its cached
// blocks. The reader is closed once the last outstanding lease is released.
func (c *tableCache) Evict(num uint64) {
	c.mu.Lock()
	var dying *tableEntry
	if e, ok := c.m[num]; ok {
		delete(c.m, num)
		e.refs--
		if e.refs == 0 {
			dying = e
		}
	}
	c.mu.Unlock()
	if dying != nil {
		dying.r.Close()
	}
	if c.blocks != nil {
		c.blocks.EvictID(num)
	}
}

// Close releases all cached readers. Outstanding leases stay valid and
// close their readers on release.
func (c *tableCache) Close() {
	c.mu.Lock()
	var dying []*tableEntry
	for num, e := range c.m {
		delete(c.m, num)
		e.refs--
		if e.refs == 0 {
			dying = append(dying, e)
		}
	}
	c.mu.Unlock()
	for _, e := range dying {
		e.r.Close()
	}
}
