package lsm

import (
	"bytes"
	"errors"
	"testing"

	"pcplsm/internal/ikey"
	"pcplsm/internal/storage"
	"pcplsm/internal/wal"
)

// writeWAL writes recs as WAL number num through the production writer, so
// every record carries a valid checksum.
func writeWAL(t *testing.T, fs storage.FS, num uint64, recs ...[]byte) {
	t.Helper()
	f, err := fs.Create(walFileName(num))
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(f)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// openWantCorruption asserts Open fails with ErrCorruption and leaves the
// files as they were.
func openWantCorruption(t *testing.T, fs storage.FS) {
	t.Helper()
	before := fileSet(t, fs)
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	if db, err := Open(opts); err == nil {
		db.Close()
		t.Fatal("Open accepted a WAL with a bad record")
	} else if !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open = %v, want ErrCorruption", err)
	}
	if after := fileSet(t, fs); after != before {
		t.Fatalf("failed Open changed the files:\nbefore %s\n after %s", before, after)
	}
}

// TestWALSeqPastMaxSeqFailsOpen: a checksum-valid record whose sequence
// range runs past ikey.MaxSeq is corruption, not a panic in the memtable.
func TestWALSeqPastMaxSeqFailsOpen(t *testing.T) {
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	fs := storage.NewMemFS()
	writeWAL(t, fs, 1, b.encode(ikey.MaxSeq+5))
	openWantCorruption(t, fs)

	// The bound is seq+count-1 ≤ MaxSeq, checked without wrapping.
	b.Put([]byte("k2"), []byte("v2"))
	for _, c := range []struct {
		seq uint64
		ok  bool
	}{
		{ikey.MaxSeq - 1, true},
		{ikey.MaxSeq, false},
		{^uint64(0), false}, // seq+count-1 wraps to 0 in a naive check
	} {
		if _, _, err := decodeBatch(b.encode(c.seq)); (err == nil) != c.ok {
			t.Errorf("two entries at seq %d: err = %v, want ok=%v", c.seq, err, c.ok)
		}
	}
}

// TestWALUndecodableRecordFailsOpen: a record that passes its checksum but
// does not decode must fail Open. Stopping replay there instead would
// silently drop every later record in the log.
func TestWALUndecodableRecordFailsOpen(t *testing.T) {
	var first, last Batch
	first.Put([]byte("a"), []byte("1"))
	last.Put([]byte("c"), []byte("3"))
	fs := storage.NewMemFS()
	garbage := []byte{2, 1, 0x7f} // seq 2, one entry of unknown kind
	writeWAL(t, fs, 1, first.encode(1), garbage, last.encode(3))
	openWantCorruption(t, fs)
}

// FuzzDecodeBatch: decoding never panics, accepted records stay inside the
// sequence space, and re-encoding the decoded entries at the same seq
// decodes back to the same seq and entries.
func FuzzDecodeBatch(f *testing.F) {
	var b Batch
	b.Put([]byte("key"), []byte("value"))
	b.Delete([]byte("gone"))
	b.Put([]byte(""), []byte(""))
	f.Add(b.encode(7))
	f.Add(b.encode(ikey.MaxSeq - 2))
	f.Add(b.encode(ikey.MaxSeq + 5))
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0x7f})
	f.Fuzz(func(t *testing.T, rec []byte) {
		seq, entries, err := decodeBatch(rec)
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("decode error %v does not match ErrCorruption", err)
			}
			return
		}
		if n := uint64(len(entries)); n > 0 && (seq > ikey.MaxSeq || n-1 > ikey.MaxSeq-seq) {
			t.Fatalf("accepted %d entries at seq %d, past MaxSeq", n, seq)
		}
		re := Batch{entries: entries}
		seq2, entries2, err := decodeBatch(re.encode(seq))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if seq2 != seq || len(entries2) != len(entries) {
			t.Fatalf("round trip: seq %d→%d, %d→%d entries", seq, seq2, len(entries), len(entries2))
		}
		for i, e := range entries {
			g := entries2[i]
			if g.kind != e.kind || !bytes.Equal(g.key, e.key) || !bytes.Equal(g.val, e.val) {
				t.Fatalf("entry %d: %+v, want %+v", i, g, e)
			}
		}
	})
}
