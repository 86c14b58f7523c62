package sstable

import (
	"fmt"
	"io"
	"sync"

	"pcplsm/internal/block"
	"pcplsm/internal/bloom"
	"pcplsm/internal/cache"
	"pcplsm/internal/checksum"
	"pcplsm/internal/storage"
)

// IndexEntry describes one data block: the last key it contains and where
// its physical bytes live. The compaction partitioner consumes these to cut
// sub-key-ranges at block boundaries.
type IndexEntry struct {
	LastKey []byte
	Handle  BlockHandle
}

// Reader provides random access to a finished table.
type Reader struct {
	f       storage.File
	size    int64
	cmp     block.Compare
	entries []IndexEntry

	filterHandle BlockHandle
	filterOnce   sync.Once
	filter       []byte // loaded lazily; nil if absent or unreadable

	bcache  *cache.Cache
	cacheID uint64
}

// SetBlockCache attaches a shared block cache; id must uniquely identify
// this table (the LSM layer uses the file number). Cached blocks are the
// decompressed contents, shared across readers — callers of ReadBlockData
// must never modify returned slices once a cache is attached.
func (r *Reader) SetBlockCache(c *cache.Cache, id uint64) {
	r.bcache = c
	r.cacheID = id
}

// NewReader opens a table: it reads the footer, loads and parses the index
// block, and keeps the file handle for data-block reads. cmp must match the
// comparator the table was written with (nil = bytes.Compare). NewReader
// takes ownership of f: on failure the file is closed before returning, so
// a rejected open never leaks the handle.
func NewReader(f storage.File, cmp block.Compare) (*Reader, error) {
	r, err := newReader(f, cmp)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newReader(f storage.File, cmp block.Compare) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < FooterLen {
		return nil, fmt.Errorf("%w: file of %d bytes", ErrBadTable, size)
	}
	footer := make([]byte, FooterLen)
	if _, err := f.ReadAt(footer, size-FooterLen); err != nil && err != io.EOF {
		return nil, err
	}
	ih, fh, err := decodeFooter(footer)
	if err != nil {
		return nil, err
	}
	if ih.Offset+ih.Length > size-FooterLen {
		return nil, fmt.Errorf("%w: index handle out of range", ErrBadTable)
	}
	physical := make([]byte, ih.Length)
	if _, err := f.ReadAt(physical, ih.Offset); err != nil && err != io.EOF {
		return nil, err
	}
	plain, err := OpenBlock(nil, physical)
	if err != nil {
		return nil, fmt.Errorf("sstable: opening index: %w", err)
	}
	it, err := block.NewIter(plain, cmp)
	if err != nil {
		return nil, fmt.Errorf("sstable: parsing index: %w", err)
	}
	var entries []IndexEntry
	for ok := it.First(); ok; ok = it.Next() {
		h, rest, err := DecodeHandle(it.Value())
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes in index value", ErrBadTable)
		}
		entries = append(entries, IndexEntry{
			LastKey: append([]byte(nil), it.Key()...),
			Handle:  h,
		})
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	return &Reader{f: f, size: size, cmp: cmp, entries: entries, filterHandle: fh}, nil
}

// MayContain probes the table's Bloom filter with a filter key (the same
// key form the writer's FilterKey produced — user keys, for LSM tables).
// It returns true when the table has no filter or the filter cannot be
// read: the filter is an optimization, never an authority.
func (r *Reader) MayContain(filterKey []byte) bool {
	if r.filterHandle.Length == 0 {
		return true
	}
	r.filterOnce.Do(func() {
		physical, err := r.ReadRaw(nil, r.filterHandle)
		if err != nil {
			return
		}
		plain, err := OpenBlock(nil, physical)
		if err != nil {
			return
		}
		r.filter = plain
	})
	if r.filter == nil {
		return true
	}
	return bloom.MayContain(r.filter, filterKey)
}

// HasFilter reports whether the table carries a Bloom filter.
func (r *Reader) HasFilter() bool { return r.filterHandle.Length > 0 }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// VerifyStats reports what one full-table verification covered.
type VerifyStats struct {
	Entries  int64  // key/value entries decoded
	Blocks   int    // data blocks read and verified
	Bytes    int64  // physical file bytes digested
	Digest   uint32 // CRC32-C over the whole file image
	Smallest []byte // first key observed
	Largest  []byte // last key observed
}

// Verify reads the whole table back through the untrusted path: the raw
// file image is digested byte for byte (CRC32-C, comparable against
// TableMeta.Digest), then every data block is re-read from the device,
// checksum-verified, decompressed, and its entries walked checking strict
// key order under the reader's comparator and agreement with the index.
// It deliberately bypasses any attached block cache — the point is to
// observe what is on the device now, not what was cached when it was
// healthy. The returned stats are valid even on error, describing how far
// verification got.
func (r *Reader) Verify() (VerifyStats, error) {
	var vs VerifyStats
	buf := make([]byte, 64<<10)
	for off := int64(0); off < r.size; {
		n := int64(len(buf))
		if r.size-off < n {
			n = r.size - off
		}
		if _, err := r.f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
			return vs, err
		}
		vs.Digest = checksum.SumWithSeed(vs.Digest, buf[:n])
		vs.Bytes += n
		off += n
	}
	cmp := r.cmp
	if cmp == nil {
		cmp = defaultCompare
	}
	var prev []byte
	for _, e := range r.entries {
		physical, err := r.ReadRaw(buf[:0], e.Handle)
		if err != nil {
			return vs, err
		}
		buf = physical
		plain, err := OpenBlock(nil, physical)
		if err != nil {
			return vs, err
		}
		it, err := block.NewIter(plain, r.cmp)
		if err != nil {
			return vs, err
		}
		for ok := it.First(); ok; ok = it.Next() {
			if vs.Entries > 0 && cmp(prev, it.Key()) >= 0 {
				return vs, fmt.Errorf("%w: keys out of order (%q after %q)", ErrBadTable, it.Key(), prev)
			}
			if vs.Entries == 0 {
				vs.Smallest = append([]byte(nil), it.Key()...)
			}
			prev = append(prev[:0], it.Key()...)
			vs.Entries++
		}
		if it.Err() != nil {
			return vs, it.Err()
		}
		if vs.Entries > 0 && cmp(prev, e.LastKey) != 0 {
			return vs, fmt.Errorf("%w: index last key %q disagrees with block last key %q",
				ErrBadTable, e.LastKey, prev)
		}
		vs.Blocks++
	}
	vs.Largest = append([]byte(nil), prev...)
	return vs, nil
}

// NumBlocks returns the number of data blocks.
func (r *Reader) NumBlocks() int { return len(r.entries) }

// IndexEntries exposes the parsed index. Callers must not mutate it.
func (r *Reader) IndexEntries() []IndexEntry { return r.entries }

// Largest returns the table's largest key (the last index key), or nil for
// an empty table.
func (r *Reader) Largest() []byte {
	if len(r.entries) == 0 {
		return nil
	}
	return r.entries[len(r.entries)-1].LastKey
}

// Smallest returns the table's smallest key by opening the first block.
func (r *Reader) Smallest() ([]byte, error) {
	if len(r.entries) == 0 {
		return nil, nil
	}
	plain, err := r.ReadBlockData(nil, r.entries[0].Handle)
	if err != nil {
		return nil, err
	}
	it, err := block.NewIter(plain, r.cmp)
	if err != nil {
		return nil, err
	}
	if !it.First() {
		return nil, fmt.Errorf("%w: empty first block", ErrBadTable)
	}
	return append([]byte(nil), it.Key()...), nil
}

// ReadRaw performs paper step S1 for one block: it returns the physical
// bytes (compressed payload + trailer) without verifying or decompressing.
func (r *Reader) ReadRaw(dst []byte, h BlockHandle) ([]byte, error) {
	if h.Offset < 0 || h.Length < BlockTrailerLen || h.Offset+h.Length > r.size {
		return nil, fmt.Errorf("%w: block handle {%d,%d} out of range", ErrBadTable, h.Offset, h.Length)
	}
	if cap(dst) < int(h.Length) {
		dst = make([]byte, h.Length)
	} else {
		dst = dst[:h.Length]
	}
	if _, err := r.f.ReadAt(dst, h.Offset); err != nil && err != io.EOF {
		return nil, err
	}
	return dst, nil
}

// physPool recycles buffers for physical (still-compressed) block reads.
// Decompression never aliases its source (every codec appends into dst), so
// a physical buffer is dead as soon as OpenBlock returns and can go straight
// back to the pool.
var physPool = sync.Pool{New: func() any { return new([]byte) }}

// ReadBlockData runs S1+S2+S3 and returns the plain block contents. With a
// block cache attached, hot blocks skip both the I/O and the decompression;
// the returned slice is then shared and must not be modified.
func (r *Reader) ReadBlockData(dst []byte, h BlockHandle) ([]byte, error) {
	if r.bcache != nil {
		key := cache.Key{ID: r.cacheID, Offset: h.Offset}
		if v := r.bcache.Get(key); v != nil {
			return v, nil
		}
		bp := physPool.Get().(*[]byte)
		physical, err := r.ReadRaw((*bp)[:0], h)
		if err != nil {
			physPool.Put(bp)
			return nil, err
		}
		// The decompressed block must be freshly allocated — it is handed to
		// the cache and shared — but the physical bytes are scratch.
		plain, err := OpenBlock(nil, physical)
		*bp = physical
		physPool.Put(bp)
		if err != nil {
			return nil, err
		}
		r.bcache.Put(key, plain)
		return plain, nil
	}
	bp := physPool.Get().(*[]byte)
	physical, err := r.ReadRaw((*bp)[:0], h)
	if err != nil {
		physPool.Put(bp)
		return nil, err
	}
	plain, err := OpenBlock(dst, physical)
	*bp = physical
	physPool.Put(bp)
	return plain, err
}

// Get returns the value of the first entry with key >= target if that
// entry's key equals target under the comparator... it returns the entry
// found at or after target: (key, value, true). ok is false when target is
// past the end of the table. The LSM layer interprets the internal key.
func (r *Reader) Get(target []byte) (key, value []byte, ok bool, err error) {
	it := r.NewIter()
	if !it.Seek(target) {
		return nil, nil, false, it.Err()
	}
	return it.Key(), it.Value(), true, nil
}

// Iter is a two-level iterator over the table. Iterators are pooled: Close
// returns the iterator (with its block-iterator scratch and decode buffer)
// to a package pool, which is what makes a cached point read allocation-free
// — so Key/Value aliases must not be used after Close.
type Iter struct {
	r        *Reader
	blockIdx int        // current data block, -1 before start
	bi       block.Iter // embedded by value and Reset per block, never reallocated
	biSet    bool       // bi is bound to the current block
	closed   bool       // guards against double-Close returning the iter to the pool twice
	buf      []byte
	err      error

	// Readahead pipeline: while the caller consumes the blocks of one
	// fetched span, a single goroutine fetches + verifies + decompresses the
	// next ra blocks with ONE contiguous read, so a scan overlaps its I/O
	// with iteration (the paper's pipelining idea applied to the read path)
	// and the device sees one large sequential request per span instead of
	// ra competing small ones. The fetch owns a 1-buffered channel, so an
	// abandoned span (after Seek, or at Close) completes and is collected
	// without blocking anyone.
	ra        int
	fetched   [][]byte // decoded blocks fetchedLo … fetchedLo+len−1
	fetchedLo int
	inflight  *prefetch
	stale     []*prefetch // abandoned fetches, drained at Close
}

// prefetch is one in-flight span fetch covering blocks [lo, hi].
type prefetch struct {
	lo, hi int
	ch     chan prefetchResult
}

type prefetchResult struct {
	plains [][]byte // per block lo…hi
	err    error
}

// iterPool recycles table iterators and their scratch buffers (block
// iterator key buffer, decode buffer) across point reads and scans.
var iterPool = sync.Pool{New: func() any { return new(Iter) }}

// NewIter returns an iterator positioned before the first entry, drawn from
// the iterator pool. Close returns it; an iterator that is never closed is
// simply collected by the GC.
func (r *Reader) NewIter() *Iter {
	it := iterPool.Get().(*Iter)
	it.r = r
	it.blockIdx = -1
	it.closed = false
	return it
}

// SetReadahead sets the number of data blocks the iterator prefetches
// (fetch + verify + decompress, concurrently) ahead of its position during
// forward iteration. 0 disables readahead. Callers that enable it should
// Close the iterator so outstanding prefetches are drained before the
// underlying file is closed.
func (it *Iter) SetReadahead(n int) {
	if n < 0 {
		n = 0
	}
	it.ra = n
}

// Close drains outstanding prefetches and returns the iterator to the pool.
// The iterator — including slices obtained from Key/Value — must not be used
// afterwards. It never returns an error; the signature exists so callers can
// defer it alongside reader closes. Close is idempotent.
func (it *Iter) Close() {
	if it.closed {
		return
	}
	if it.inflight != nil {
		<-it.inflight.ch // each fetch always sends exactly one result
		it.inflight = nil
	}
	for _, p := range it.stale {
		<-p.ch
	}
	it.stale = it.stale[:0]
	it.fetched = nil
	it.fetchedLo = 0
	it.bi.Release() // drop block references so pooling doesn't pin cached blocks
	it.biSet = false
	it.r = nil
	it.err = nil
	it.ra = 0
	it.closed = true
	iterPool.Put(it)
}

// scheduleReadahead keeps one span fetch in flight covering the ra blocks
// after whatever is already fetched, starting no earlier than cur+1.
func (it *Iter) scheduleReadahead(cur int) {
	if it.ra <= 0 || it.inflight != nil {
		return
	}
	next := cur + 1
	if end := it.fetchedLo + len(it.fetched); it.fetched != nil && it.fetchedLo <= next && next < end {
		next = end
	}
	if next >= len(it.r.entries) {
		return
	}
	hi := next + it.ra - 1
	if hi >= len(it.r.entries) {
		hi = len(it.r.entries) - 1
	}
	p := &prefetch{lo: next, hi: hi, ch: make(chan prefetchResult, 1)}
	go it.r.fetchSpan(p.lo, p.hi, p.ch)
	it.inflight = p
}

// takePrefetched returns the decoded contents of block i from the fetched
// span or the in-flight fetch (waiting for it), or nil when no prefetch
// covers i. A fetch error is returned and invalidates nothing else.
func (it *Iter) takePrefetched(i int) ([]byte, error) {
	if it.fetched != nil && it.fetchedLo <= i && i < it.fetchedLo+len(it.fetched) {
		return it.fetched[i-it.fetchedLo], nil
	}
	if p := it.inflight; p != nil {
		if p.lo <= i && i <= p.hi {
			res := <-p.ch
			it.inflight = nil
			if res.err != nil {
				return nil, res.err
			}
			it.fetched, it.fetchedLo = res.plains, p.lo
			return it.fetched[i-p.lo], nil
		}
		// The iterator jumped; let the fetch finish on its own.
		it.stale = append(it.stale, p)
		it.inflight = nil
	}
	return nil, nil
}

// fetchSpan reads blocks [lo, hi] for a readahead pipeline: cached blocks
// are taken from the block cache, and each contiguous uncached run is read
// with a single ReadAt — one large sequential request instead of hi−lo+1
// small ones — then verified, decompressed, and (when a cache is attached)
// inserted block by block. Exactly one result is always sent on ch.
func (r *Reader) fetchSpan(lo, hi int, ch chan prefetchResult) {
	// Span buffers are scratch: every decoded block is a fresh allocation
	// (cache-shared or handed to the consumer), so the raw bytes recycle.
	bp := physPool.Get().(*[]byte)
	defer physPool.Put(bp)
	plains := make([][]byte, hi-lo+1)
	var cached [][]byte
	if r.bcache != nil {
		cached = make([][]byte, hi-lo+1)
		for i := lo; i <= hi; i++ {
			cached[i-lo] = r.bcache.Get(cache.Key{ID: r.cacheID, Offset: r.entries[i].Handle.Offset})
		}
	}
	for i := lo; i <= hi; {
		if cached != nil && cached[i-lo] != nil {
			plains[i-lo] = cached[i-lo]
			i++
			continue
		}
		j := i
		for j <= hi && (cached == nil || cached[j-lo] == nil) {
			j++
		}
		first, last := r.entries[i].Handle, r.entries[j-1].Handle
		start, end := first.Offset, last.Offset+last.Length
		if first.Offset < 0 || first.Length < BlockTrailerLen || end > r.size || end < start {
			ch <- prefetchResult{err: fmt.Errorf("%w: block span {%d,%d} out of range", ErrBadTable, start, end-start)}
			return
		}
		raw := *bp
		if cap(raw) < int(end-start) {
			raw = make([]byte, end-start)
			*bp = raw
		} else {
			raw = raw[:end-start]
		}
		if _, err := r.f.ReadAt(raw, start); err != nil && err != io.EOF {
			ch <- prefetchResult{err: err}
			return
		}
		for k := i; k < j; k++ {
			h := r.entries[k].Handle
			if h.Offset < start || h.Offset+h.Length > end {
				ch <- prefetchResult{err: fmt.Errorf("%w: block handle {%d,%d} outside its span", ErrBadTable, h.Offset, h.Length)}
				return
			}
			plain, err := OpenBlock(nil, raw[h.Offset-start:h.Offset-start+h.Length])
			if err != nil {
				ch <- prefetchResult{err: err}
				return
			}
			plains[k-lo] = plain
			if r.bcache != nil {
				r.bcache.Put(cache.Key{ID: r.cacheID, Offset: h.Offset}, plain)
			}
		}
		i = j
	}
	ch <- prefetchResult{plains: plains}
}

// Valid reports whether the iterator is on an entry.
func (it *Iter) Valid() bool { return it.err == nil && it.biSet && it.bi.Valid() }

// Err returns the first error encountered.
func (it *Iter) Err() error {
	if it.err != nil {
		return it.err
	}
	if it.biSet {
		return it.bi.Err()
	}
	return nil
}

// Key returns the current key (owned by the iterator).
func (it *Iter) Key() []byte { return it.bi.Key() }

// Value returns the current value.
func (it *Iter) Value() []byte { return it.bi.Value() }

// loadBlock opens data block i, consuming a completed prefetch when one is
// pending for it.
func (it *Iter) loadBlock(i int) bool {
	plain, perr := it.takePrefetched(i)
	if perr != nil {
		it.err = perr
		return false
	}
	if plain == nil {
		// Reuse the scratch buffer only when no cache is attached: cached
		// blocks are shared and must never be appended into.
		var dst []byte
		if it.r.bcache == nil {
			dst = it.buf[:0]
		}
		p, err := it.r.ReadBlockData(dst, it.r.entries[i].Handle)
		if err != nil {
			it.err = err
			return false
		}
		plain = p
		if it.r.bcache == nil {
			// Adopt the freshly decoded block as the scratch buffer: by the
			// time the next direct read decodes over it, it is no longer
			// referenced. Blocks served from a fetched span must NOT be
			// adopted — the span still holds them and may serve them again
			// after a backward Seek.
			it.buf = plain
		}
	}
	// Rebinding the embedded block iterator reuses its key scratch — moving
	// across the blocks of a scan allocates nothing.
	if err := it.bi.Reset(plain, it.r.cmp); err != nil {
		it.err = err
		it.biSet = false
		return false
	}
	it.blockIdx = i
	it.biSet = true
	it.scheduleReadahead(i)
	return true
}

// First positions at the first entry of the table.
func (it *Iter) First() bool {
	if len(it.r.entries) == 0 {
		return false
	}
	if !it.loadBlock(0) {
		return false
	}
	return it.bi.First()
}

// Next advances one entry, moving across block boundaries.
func (it *Iter) Next() bool {
	if it.err != nil || !it.biSet {
		return false
	}
	if it.bi.Next() {
		return true
	}
	if it.bi.Err() != nil {
		it.err = it.bi.Err()
		return false
	}
	for it.blockIdx+1 < len(it.r.entries) {
		if !it.loadBlock(it.blockIdx + 1) {
			return false
		}
		if it.bi.First() {
			return true
		}
		if it.bi.Err() != nil {
			it.err = it.bi.Err()
			return false
		}
	}
	return false
}

// Seek positions at the first entry with key >= target.
func (it *Iter) Seek(target []byte) bool {
	if it.err != nil {
		return false
	}
	cmp := it.r.cmp
	if cmp == nil {
		cmp = defaultCompare
	}
	// Binary search the index: first block whose LastKey >= target.
	lo, hi := 0, len(it.r.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(it.r.entries[mid].LastKey, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(it.r.entries) {
		it.biSet = false
		return false
	}
	if !it.loadBlock(lo) {
		return false
	}
	if it.bi.Seek(target) {
		return true
	}
	if it.bi.Err() != nil {
		it.err = it.bi.Err()
		return false
	}
	// Target falls in the gap after this block's last key (can happen only
	// if LastKey comparisons and block contents disagree — defensive).
	for it.blockIdx+1 < len(it.r.entries) {
		if !it.loadBlock(it.blockIdx + 1) {
			return false
		}
		if it.bi.First() {
			return true
		}
	}
	return false
}

func defaultCompare(a, b []byte) int {
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	default:
		return 0
	}
}
