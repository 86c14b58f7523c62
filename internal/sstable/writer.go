package sstable

import (
	"fmt"

	"pcplsm/internal/block"
	"pcplsm/internal/bloom"
	"pcplsm/internal/checksum"
	"pcplsm/internal/compress"
	"pcplsm/internal/storage"
)

// WriterOptions configure table construction.
type WriterOptions struct {
	// BlockSize is the uncompressed data block target size (default 4 KiB,
	// the paper's setting).
	BlockSize int
	// RestartInterval for data blocks (default block.DefaultRestartInterval).
	RestartInterval int
	// Codec compresses data blocks (default Snappy, the paper's setting).
	Codec compress.Codec
	// Compare orders keys (default bytes.Compare semantics via nil).
	Compare block.Compare
	// FilterBitsPerKey, when positive, builds a Bloom filter over the
	// table's filter keys (10 is the classic choice: ~0.8% false
	// positives).
	FilterBitsPerKey int
	// FilterKey maps a stored key to the key the filter indexes (e.g.
	// internal key → user key). nil uses the stored key verbatim.
	FilterKey func(key []byte) []byte
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 4 << 10
	}
	if o.RestartInterval <= 0 {
		o.RestartInterval = block.DefaultRestartInterval
	}
	if o.Codec == nil {
		o.Codec = compress.MustByKind(compress.Snappy)
	}
	return o
}

// TableMeta summarizes a finished table.
type TableMeta struct {
	Entries    int64
	DataBlocks int
	FileSize   int64
	Smallest   []byte // first key in the table
	Largest    []byte // last key in the table
	// Digest is the CRC32-C of the complete file image (every byte from
	// offset 0 through the footer), accumulated incrementally as the writer
	// lands bytes — no extra read pass. Scrubbing and verify-before-install
	// recompute it from the file and compare. 0 means "unknown" (tables
	// written before digests existed).
	Digest uint32
}

// RawWriter appends pre-sealed physical blocks to a table file and builds
// the index. It is the write-stage half of the compaction pipeline: the
// compute stage seals blocks (S5+S6) and the write stage lands them (S7).
type RawWriter struct {
	f        storage.File
	off      int64
	digest   uint32 // running CRC32-C over every byte written so far
	index    *block.Builder
	meta     TableMeta
	finished bool

	// FilterBitsPerKey enables a Bloom filter over the hashes passed to
	// AddFilterHashes. Set it before Finish.
	FilterBitsPerKey int
	filterHashes     []uint32
}

// NewRawWriter starts a table at the beginning of f (which must be empty).
// cmp defines the key order (nil = bytes.Compare); it must match the order
// of the sealed blocks being added.
func NewRawWriter(f storage.File, cmp block.Compare) *RawWriter {
	return &RawWriter{f: f, index: block.NewBuilder(1, cmp)}
}

// AddFilterHashes records filter-key hashes (bloom.Hash of each entry's
// filter key) to include in the table's Bloom filter.
func (w *RawWriter) AddFilterHashes(hs []uint32) {
	w.filterHashes = append(w.filterHashes, hs...)
}

// AddFilterHash records a single filter-key hash.
func (w *RawWriter) AddFilterHash(h uint32) {
	w.filterHashes = append(w.filterHashes, h)
}

// AddSealedBlock appends one physical (compressed + trailer) data block
// whose plain contents span [firstKey, lastKey] and hold entries entries.
// Blocks must arrive in key order.
func (w *RawWriter) AddSealedBlock(firstKey, lastKey, physical []byte, entries int64) error {
	if w.finished {
		return fmt.Errorf("%w: writer already finished", ErrBadTable)
	}
	if len(physical) < BlockTrailerLen {
		return fmt.Errorf("%w: sealed block of %d bytes", ErrBadTable, len(physical))
	}
	if _, err := w.f.Write(physical); err != nil {
		return err
	}
	w.digest = checksum.SumWithSeed(w.digest, physical)
	h := BlockHandle{Offset: w.off, Length: int64(len(physical))}
	w.index.Add(lastKey, h.EncodeTo(nil))
	w.off += int64(len(physical))
	if w.meta.DataBlocks == 0 {
		w.meta.Smallest = append([]byte(nil), firstKey...)
	}
	w.meta.Largest = append(w.meta.Largest[:0], lastKey...)
	w.meta.DataBlocks++
	w.meta.Entries += entries
	return nil
}

// Offset returns the current file offset (bytes of sealed data so far).
func (w *RawWriter) Offset() int64 { return w.off }

// Finish writes the index block and footer, syncs, and returns the table
// metadata. The file is left open; the caller closes it. The sync is the
// table's only one: a flush or compaction output is durable once Finish
// returns, before the manifest references it and the WAL or input tables
// it replaces are deleted, so callers must not sync again.
func (w *RawWriter) Finish() (TableMeta, error) {
	if w.finished {
		return TableMeta{}, fmt.Errorf("%w: writer already finished", ErrBadTable)
	}
	w.finished = true
	// Optional Bloom filter block, stored uncompressed between the data
	// blocks and the index.
	var filterHandle BlockHandle
	if w.FilterBitsPerKey > 0 && len(w.filterHashes) > 0 {
		physical := SealBlock(nil, bloom.BuildFromHashes(w.filterHashes, w.FilterBitsPerKey),
			compress.MustByKind(compress.None))
		if _, err := w.f.Write(physical); err != nil {
			return TableMeta{}, err
		}
		w.digest = checksum.SumWithSeed(w.digest, physical)
		filterHandle = BlockHandle{Offset: w.off, Length: int64(len(physical))}
		w.off += int64(len(physical))
	}
	// The index block is sealed uncompressed: it is small, and keeping it
	// cheap to open matters more than its size.
	physical := SealBlock(nil, w.index.Finish(), compress.MustByKind(compress.None))
	if _, err := w.f.Write(physical); err != nil {
		return TableMeta{}, err
	}
	w.digest = checksum.SumWithSeed(w.digest, physical)
	indexHandle := BlockHandle{Offset: w.off, Length: int64(len(physical))}
	w.off += int64(len(physical))
	footer := encodeFooter(indexHandle, filterHandle)
	if _, err := w.f.Write(footer); err != nil {
		return TableMeta{}, err
	}
	w.digest = checksum.SumWithSeed(w.digest, footer)
	w.off += int64(len(footer))
	if err := w.f.Sync(); err != nil {
		return TableMeta{}, err
	}
	w.meta.FileSize = w.off
	w.meta.Digest = w.digest
	return w.meta, nil
}

// Writer builds a table from sorted key/value pairs, handling block
// formation, compression and checksumming internally. It is the path used
// by memtable flushes; compaction uses RawWriter so the pipeline stages stay
// explicit.
type Writer struct {
	raw       *RawWriter
	opts      WriterOptions
	builder   *block.Builder
	cmp       block.Compare
	firstKey  []byte
	lastKey   []byte
	blockN    int64
	sealBuf   []byte
	haveEntry bool
}

// NewWriter starts a table at the beginning of f.
func NewWriter(f storage.File, opts WriterOptions) *Writer {
	opts = opts.withDefaults()
	return &Writer{
		raw:     NewRawWriter(f, opts.Compare),
		opts:    opts,
		builder: block.NewBuilder(opts.RestartInterval, opts.Compare),
		cmp:     opts.Compare,
	}
}

// Add appends a key/value pair. Keys must be strictly ascending under the
// writer's comparator.
func (w *Writer) Add(key, value []byte) error {
	if w.builder.Empty() {
		w.firstKey = append(w.firstKey[:0], key...)
	}
	w.builder.Add(key, value)
	if w.opts.FilterBitsPerKey > 0 {
		fk := key
		if w.opts.FilterKey != nil {
			fk = w.opts.FilterKey(key)
		}
		w.raw.AddFilterHash(bloom.Hash(fk))
	}
	w.lastKey = append(w.lastKey[:0], key...)
	w.blockN++
	w.haveEntry = true
	if w.builder.SizeEstimate() >= w.opts.BlockSize {
		return w.flush()
	}
	return nil
}

// flush seals the current block and hands it to the raw writer.
func (w *Writer) flush() error {
	if w.builder.Empty() {
		return nil
	}
	plain := w.builder.Finish()
	w.sealBuf = SealBlock(w.sealBuf[:0], plain, w.opts.Codec)
	err := w.raw.AddSealedBlock(w.firstKey, w.lastKey, w.sealBuf, w.blockN)
	w.builder.Reset()
	w.blockN = 0
	return err
}

// EstimatedSize returns the approximate final file size so far.
func (w *Writer) EstimatedSize() int64 {
	return w.raw.Offset() + int64(w.builder.SizeEstimate()) + FooterLen
}

// Empty reports whether nothing has been added.
func (w *Writer) Empty() bool { return !w.haveEntry }

// Finish flushes the final block, writes index and footer, syncs (see
// RawWriter.Finish), and returns the table metadata.
func (w *Writer) Finish() (TableMeta, error) {
	if err := w.flush(); err != nil {
		return TableMeta{}, err
	}
	w.raw.FilterBitsPerKey = w.opts.FilterBitsPerKey
	return w.raw.Finish()
}
