package lsm

import (
	"encoding/binary"
	"fmt"

	"pcplsm/internal/ikey"
)

// Batch collects writes that commit atomically: one WAL record, one
// sequence-number range, applied to the memtable together.
type Batch struct {
	entries []batchEntry
	size    int64
}

type batchEntry struct {
	kind ikey.Kind
	key  []byte
	val  []byte
}

// Put queues a set operation. The key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.entries = append(b.entries, batchEntry{
		kind: ikey.KindSet,
		key:  append([]byte(nil), key...),
		val:  append([]byte(nil), value...),
	})
	b.size += int64(len(key) + len(value))
}

// Delete queues a deletion. The key is copied.
func (b *Batch) Delete(key []byte) {
	b.entries = append(b.entries, batchEntry{
		kind: ikey.KindDelete,
		key:  append([]byte(nil), key...),
	})
	b.size += int64(len(key))
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.entries) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.entries = b.entries[:0]
	b.size = 0
}

// encode serializes the batch as a WAL record with base sequence seq:
//
//	uvarint seq | uvarint count | count × (kind byte | klen | key | [vlen | value])
func (b *Batch) encode(seq uint64) []byte {
	return b.encodeTo(nil, seq)
}

// encodeTo appends the encoded record to dst (usually a reused scratch
// buffer) and returns the extended slice. The layout is the one encode
// documents; a record holding the entries of several merged batches is
// produced by one header (base seq, total count) followed by each batch's
// appendEntries, and is indistinguishable from a single large batch.
func (b *Batch) encodeTo(dst []byte, seq uint64) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(b.entries)))
	return b.appendEntries(dst)
}

// appendEntries appends only the entry bodies (no seq/count header).
func (b *Batch) appendEntries(dst []byte) []byte {
	for _, e := range b.entries {
		dst = append(dst, byte(e.kind))
		dst = binary.AppendUvarint(dst, uint64(len(e.key)))
		dst = append(dst, e.key...)
		if e.kind == ikey.KindSet {
			dst = binary.AppendUvarint(dst, uint64(len(e.val)))
			dst = append(dst, e.val...)
		}
	}
	return dst
}

// entriesSize returns the exact encoded length of appendEntries' output,
// so a merged group record can be pre-sized instead of grown piecemeal.
func (b *Batch) entriesSize() int {
	n := 0
	for _, e := range b.entries {
		n += 1 + uvarintLen(uint64(len(e.key))) + len(e.key)
		if e.kind == ikey.KindSet {
			n += uvarintLen(uint64(len(e.val))) + len(e.val)
		}
	}
	return n
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodeBatch parses a WAL record back into operations. Every failure
// matches ErrCorruption, including a sequence range that runs past
// ikey.MaxSeq (the memtable cannot represent it).
func decodeBatch(rec []byte) (seq uint64, entries []batchEntry, err error) {
	bad := func(what string) (uint64, []batchEntry, error) {
		return 0, nil, fmt.Errorf("%w: batch record: %s", ErrCorruption, what)
	}
	seq, n := binary.Uvarint(rec)
	if n <= 0 {
		return bad("seq")
	}
	rec = rec[n:]
	count, n := binary.Uvarint(rec)
	if n <= 0 {
		return bad("count")
	}
	rec = rec[n:]
	// seq+count-1 ≤ MaxSeq, written so that neither side can wrap.
	if count > 0 && (seq > ikey.MaxSeq || count-1 > ikey.MaxSeq-seq) {
		return bad("sequence range exceeds MaxSeq")
	}
	for i := uint64(0); i < count; i++ {
		if len(rec) < 1 {
			return bad("kind")
		}
		kind := ikey.Kind(rec[0])
		if kind != ikey.KindSet && kind != ikey.KindDelete {
			return bad("unknown kind")
		}
		rec = rec[1:]
		klen, n := binary.Uvarint(rec)
		if n <= 0 || uint64(len(rec)-n) < klen {
			return bad("key")
		}
		key := rec[n : n+int(klen)]
		rec = rec[n+int(klen):]
		var val []byte
		if kind == ikey.KindSet {
			vlen, n := binary.Uvarint(rec)
			if n <= 0 || uint64(len(rec)-n) < vlen {
				return bad("value")
			}
			val = rec[n : n+int(vlen)]
			rec = rec[n+int(vlen):]
		}
		entries = append(entries, batchEntry{kind: kind, key: key, val: val})
	}
	if len(rec) != 0 {
		return bad("trailing bytes")
	}
	return seq, entries, nil
}
