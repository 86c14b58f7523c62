package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"pcplsm/internal/storage"
)

func writeLog(t testing.TB, fs storage.FS, name string, recs [][]byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSmallRecords(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{[]byte("one"), []byte(""), []byte("three"), bytes.Repeat([]byte{7}, 100)}
	writeLog(t, fs, "log", recs)
	got, err := ReadAllRecords(fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRoundTripFragmentedRecords(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{
		bytes.Repeat([]byte{'a'}, BlockSize-headerSize), // exactly one block
		bytes.Repeat([]byte{'b'}, BlockSize),            // spans two blocks
		bytes.Repeat([]byte{'c'}, 3*BlockSize+12345),    // first/middle/middle/last
		[]byte("small after big"),
	}
	writeLog(t, fs, "log", recs)
	got, err := ReadAllRecords(fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch: %d vs %d bytes", i, len(got[i]), len(recs[i]))
		}
	}
}

func TestBlockBoundaryPadding(t *testing.T) {
	// Force the writer to leave < headerSize bytes at a block tail.
	fs := storage.NewMemFS()
	first := bytes.Repeat([]byte{'x'}, BlockSize-headerSize-headerSize-3) // leaves 3 bytes after next header... craft below
	recs := [][]byte{first, []byte("yy"), []byte("after pad")}
	writeLog(t, fs, "log", recs)
	got, err := ReadAllRecords(fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[2], []byte("after pad")) {
		t.Fatalf("padding handling broken: %d records", len(got))
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := storage.NewMemFS()
		var recs [][]byte
		for _, s := range sizes {
			r := make([]byte, int(s)%(2*BlockSize))
			rng.Read(r)
			recs = append(recs, r)
		}
		fh, _ := fs.Create("log")
		w := NewWriter(fh)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				return false
			}
		}
		w.Close()
		got, err := ReadAllRecords(fs, "log")
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyLog(t *testing.T) {
	fs := storage.NewMemFS()
	writeLog(t, fs, "log", nil)
	got, err := ReadAllRecords(fs, "log")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty log: %d records, %v", len(got), err)
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{'g'}, 50000)}
	writeLog(t, fs, "log", recs)
	data, _ := storage.ReadAll(fs, "log")

	// Truncate mid-way through the last (fragmented) record: a torn write.
	torn := data[:len(data)-1000]
	r := NewReaderBytes(torn)
	var got [][]byte
	var lastErr error
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			lastErr = err
			break
		}
		got = append(got, append([]byte(nil), rec...))
	}
	if lastErr == nil {
		t.Fatal("expected corruption error on torn tail")
	}
	if !errors.Is(lastErr, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", lastErr)
	}
	if len(got) != 2 || string(got[0]) != "alpha" || string(got[1]) != "beta" {
		t.Fatalf("prefix not recovered: %d records", len(got))
	}
}

func TestBitFlipDetected(t *testing.T) {
	fs := storage.NewMemFS()
	writeLog(t, fs, "log", [][]byte{[]byte("record-one-payload"), []byte("record-two-payload")})
	data, _ := storage.ReadAll(fs, "log")

	// Flip a payload byte of the first record.
	mut := append([]byte{}, data...)
	mut[headerSize+2] ^= 0x01
	r := NewReaderBytes(mut)
	_, err := r.Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not detected: %v", err)
	}
}

func TestCorruptionSkipsToNextBlock(t *testing.T) {
	// Two blocks: damage block 0, expect records in block 1 to be salvageable.
	fs := storage.NewMemFS()
	recs := [][]byte{
		bytes.Repeat([]byte{'a'}, BlockSize-headerSize), // fills block 0 exactly
		[]byte("salvage-me"),                            // lives in block 1
	}
	writeLog(t, fs, "log", recs)
	data, _ := storage.ReadAll(fs, "log")
	mut := append([]byte{}, data...)
	mut[100] ^= 0xff // corrupt record in block 0

	r := NewReaderBytes(mut)
	_, err := r.Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected corruption, got %v", err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	if string(rec) != "salvage-me" {
		t.Fatalf("salvaged %q", rec)
	}
}

func TestZeroedTailIsCleanEOF(t *testing.T) {
	fs := storage.NewMemFS()
	writeLog(t, fs, "log", [][]byte{[]byte("only")})
	data, _ := storage.ReadAll(fs, "log")
	// Simulate preallocated zeroed space after the records.
	data = append(data, make([]byte, 2048)...)
	r := NewReaderBytes(data)
	rec, err := r.Next()
	if err != nil || string(rec) != "only" {
		t.Fatalf("first record: %q, %v", rec, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("zeroed tail should be clean EOF, got %v", err)
	}
}

func TestLargeRecordStress(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(9))
	var recs [][]byte
	for i := 0; i < 20; i++ {
		r := make([]byte, rng.Intn(5*BlockSize))
		rng.Read(r)
		recs = append(recs, r)
	}
	writeLog(t, fs, "log", recs)
	got, err := ReadAllRecords(fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadMissingLog(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := ReadAllRecords(fs, "nope"); err == nil {
		t.Fatal("missing log should error")
	}
}

// FuzzWALReader: a Reader over arbitrary bytes never panics, reports every
// damaged region as ErrCorrupt, and reaches io.EOF even when the caller
// keeps salvaging past errors. Every call but the last before EOF consumes
// at least one header, which bounds the number of calls.
func FuzzWALReader(f *testing.F) {
	fs := storage.NewMemFS()
	writeLog(f, fs, "small", [][]byte{[]byte("one"), {}, []byte("three")})
	writeLog(f, fs, "fragmented", [][]byte{bytes.Repeat([]byte{'f'}, BlockSize+100), []byte("tail")})
	for _, name := range []string{"small", "fragmented"} {
		data, err := storage.ReadAll(fs, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-3]) // torn tail
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReaderBytes(data)
		for calls := 0; ; calls++ {
			if calls > len(data)/headerSize+2 {
				t.Fatalf("no io.EOF after %d calls over %d bytes", calls, len(data))
			}
			_, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		}
	})
}

func BenchmarkAppend100B(b *testing.B) {
	fs := storage.NewMemFS()
	f, _ := fs.Create(fmt.Sprintf("log-%d", b.N))
	w := NewWriter(f)
	rec := bytes.Repeat([]byte{'r'}, 100)
	b.SetBytes(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
