package lsm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pcplsm/internal/storage"
)

// TestManifestRoundTrip: records replay exactly.
func TestManifestRoundTrip(t *testing.T) {
	fs := storage.NewMemFS()
	m, err := openManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*VersionEdit{
		{WALNum: 3, Seq: 100, NextFile: 4},
		{Added: map[int][]*TableMeta{0: {{Num: 5, Size: 1234, Entries: 10,
			Smallest: []byte("aaa\x01\x00\x00\x00\x00\x00\x00\x00"),
			Largest:  []byte("zzz\x01\x00\x00\x00\x00\x00\x00\x00")}}}},
		{Deleted: map[int][]uint64{0: {5}}, Added: map[int][]*TableMeta{1: {{Num: 6, Size: 99}}}},
	}
	for _, r := range recs {
		if err := m.append(r); err != nil {
			t.Fatal(err)
		}
	}
	m.close()

	got, err := replayManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	if got[0].WALNum != 3 || got[0].Seq != 100 || got[0].NextFile != 4 {
		t.Fatalf("record 0 = %+v", got[0])
	}
	tb := got[1].Added[0][0]
	if tb.Num != 5 || tb.Size != 1234 || tb.Entries != 10 || string(tb.Smallest[:3]) != "aaa" {
		t.Fatalf("record 1 table = %+v", tb)
	}
	if got[2].Deleted[0][0] != 5 || got[2].Added[1][0].Num != 6 {
		t.Fatalf("record 2 = %+v", got[2])
	}
}

// TestManifestTornTailTolerated: a truncated final line stops replay at the
// last intact record instead of failing the open.
func TestManifestTornTailTolerated(t *testing.T) {
	fs := storage.NewMemFS()
	m, _ := openManifest(fs)
	for i := 0; i < 5; i++ {
		if err := m.append(&VersionEdit{Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	m.close()
	data, _ := storage.ReadAll(fs, manifestName)
	fs.Remove(manifestName)
	if err := storage.WriteFile(fs, manifestName, data[:len(data)-4]); err != nil {
		t.Fatal(err)
	}
	got, err := replayManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records from torn manifest, want 4", len(got))
	}
}

// TestManifestBlankLinesSkipped: whitespace-only lines do not break replay.
func TestManifestBlankLinesSkipped(t *testing.T) {
	fs := storage.NewMemFS()
	m, _ := openManifest(fs)
	m.append(&VersionEdit{Seq: 7})
	f, _ := fs.Open(manifestName)
	f.Write([]byte("\n  \n"))
	f.Close()
	m.append(&VersionEdit{Seq: 8})
	m.close()
	got, err := replayManifest(fs)
	if err != nil || len(got) != 2 {
		t.Fatalf("replay = %d records, %v", len(got), err)
	}
	if got[1].Seq != 8 {
		t.Fatalf("second record seq = %d", got[1].Seq)
	}
}

// TestManifestTableConversions covers the meta<->json mapping.
func TestManifestTableConversions(t *testing.T) {
	orig := &TableMeta{Num: 42, Size: 1000, Entries: 7,
		Smallest: []byte("s\x01\x00\x00\x00\x00\x00\x00\x00"),
		Largest:  []byte("t\x01\x00\x00\x00\x00\x00\x00\x00")}
	enc, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "digest") {
		t.Fatalf("digest 0 must be omitted: %s", enc)
	}
	var back TableMeta
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Num != orig.Num || back.Size != orig.Size || back.Entries != orig.Entries ||
		string(back.Smallest) != string(orig.Smallest) || string(back.Largest) != string(orig.Largest) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.FileName() != fmt.Sprintf("%06d.sst", 42) {
		t.Fatalf("FileName = %s", back.FileName())
	}
}

// parentManifest is a journal written by the manifestRecord-based code that
// VersionEdit replaced: two flushes, an L0→L1 compaction, an L1→L2 trivial
// move, a quarantine and a scrub-cursor checkpoint.
var parentManifest = []string{
	`{"wal":1,"next_file":2}`,
	`{"added":{"0":[{"num":4,"size":130,"entries":2,"smallest":"azAwAQEAAAAAAAA=","largest":"azAxAQIAAAAAAAA=","digest":3986722037}]},"seq":2,"next_file":5}`,
	`{"added":{"0":[{"num":7,"size":132,"entries":2,"smallest":"azEwAQMAAAAAAAA=","largest":"azExAQQAAAAAAAA=","digest":3518500101}]},"seq":4,"next_file":8}`,
	`{"added":{"1":[{"num":9,"size":148,"entries":4,"smallest":"azAwAQEAAAAAAAA=","largest":"azExAQQAAAAAAAA=","digest":1607316809}]},"deleted":{"0":[4,7]}}`,
	`{"added":{"2":[{"num":9,"size":148,"entries":4,"smallest":"azAwAQEAAAAAAAA=","largest":"azExAQQAAAAAAAA=","digest":1607316809}]},"deleted":{"1":[9]},"compact_ptr":{"1":"azExAQQAAAAAAAA="}}`,
	`{"quarantined":[9]}`,
	`{"scrub_cursor":9}`,
}

// parentSnapshot is the one-line manifest the same code wrote when it
// reopened the store journaled by parentManifest.
const parentSnapshot = `{"added":{"2":[{"num":9,"size":148,"entries":4,"smallest":"azAwAQEAAAAAAAA=","largest":"azExAQQAAAAAAAA=","digest":1607316809}]},"wal":10,"seq":4,"next_file":11,"compact_ptr":{"1":"azExAQQAAAAAAAA="},"quarantined":[9],"scrub_cursor":9}`

// TestManifestFormatUnchanged: every line the previous manifest code wrote
// decodes into a VersionEdit that encodes back to the same bytes, replaying
// them reproduces the state they describe, and the snapshot Open writes
// from that state is byte-identical to the one the previous code wrote.
func TestManifestFormatUnchanged(t *testing.T) {
	for _, line := range append(parentManifest, parentSnapshot) {
		var e VersionEdit
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != line {
			t.Fatalf("re-encoded line differs:\n got %s\nwant %s", enc, line)
		}
	}

	fs := storage.NewMemFS()
	if err := storage.WriteFile(fs, manifestName, []byte(strings.Join(parentManifest, "\n")+"\n")); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	if v := db.Version(); v.NumTables() != 1 || len(v.Levels[2]) != 1 ||
		v.Levels[2][0].Num != 9 || v.Levels[2][0].Digest != 1607316809 {
		t.Fatalf("replayed version:\n%s", versionDump(v))
	}
	db.mu.Lock()
	ptr, quar, cursor, seq := db.compactPtr[1], db.quarantine, db.scrubCursor, db.seq
	db.mu.Unlock()
	if string(ptr) != "k11\x01\x04\x00\x00\x00\x00\x00\x00" {
		t.Fatalf("replayed L1 cursor %q", ptr)
	}
	if _, ok := quar[9]; !ok || len(quar) != 1 || cursor != 9 || seq != 4 {
		t.Fatalf("replayed quarantine %v, scrub cursor %d, seq %d", quar, cursor, seq)
	}
	snap, err := storage.ReadAll(fs, manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != parentSnapshot+"\n" {
		t.Fatalf("snapshot differs:\n got %s\nwant %s", snap, parentSnapshot)
	}
}

// TestManifestInvalidEditFailsOpen: a manifest edit that names a level
// outside [0, NumLevels) or carries a malformed table, cursor or sequence
// fails Open with ErrCorruption instead of panicking it.
func TestManifestInvalidEditFailsOpen(t *testing.T) {
	const key = `"azAwAQEAAAAAAAA="`
	for name, line := range map[string]string{
		"added level 9":     `{"added":{"9":[{"num":4,"size":1,"entries":1,"smallest":` + key + `,"largest":` + key + `}]}}`,
		"added level -1":    `{"added":{"-1":[{"num":4,"size":1,"entries":1,"smallest":` + key + `,"largest":` + key + `}]}}`,
		"deleted level 7":   `{"deleted":{"7":[4]}}`,
		"cursor level 12":   `{"compact_ptr":{"12":` + key + `}}`,
		"short cursor":      `{"compact_ptr":{"1":"azA="}}`,
		"short table key":   `{"added":{"1":[{"num":4,"size":1,"entries":1,"smallest":"","largest":` + key + `}]}}`,
		"null table":        `{"added":{"1":[null]}}`,
		"inverted table":    `{"added":{"1":[{"num":4,"size":1,"entries":1,"smallest":"azExAQQAAAAAAAA=","largest":` + key + `}]}}`,
		"sequence past max": `{"seq":18446744073709551615}`,
	} {
		t.Run(name, func(t *testing.T) {
			fs := storage.NewMemFS()
			if err := storage.WriteFile(fs, manifestName, []byte(line+"\n"+`{"seq":1}`+"\n")); err != nil {
				t.Fatal(err)
			}
			db, err := Open(smallOpts(fs))
			if err == nil {
				db.Close()
				t.Fatal("Open accepted an invalid manifest edit")
			}
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("Open = %v, want ErrCorruption", err)
			}
		})
	}
}

// TestManifestMidFileDamageFailsOpen: a line that no longer decodes with
// intact records after it is corruption, not a torn tail. Open must fail
// with ErrCorruption and delete nothing — replaying only the prefix would
// leave the later tables unreferenced, and the obsolete-file sweep would
// remove them.
func TestManifestMidFileDamageFailsOpen(t *testing.T) {
	fs := storage.NewMemFS()
	opts := smallOpts(fs)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	for f := 0; f < 3; f++ {
		for i := 0; i < 100; i++ {
			if err := db.Put([]byte(fmt.Sprintf("m%d-%03d", f, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := storage.ReadAll(fs, manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 4 {
		t.Fatalf("manifest has %d lines, want snapshot + 3 flushes", n)
	}
	data[bytes.IndexByte(data, '\n')+1] ^= 0xff // first byte of line 2
	if err := storage.WriteFile(fs, manifestName, data); err != nil {
		t.Fatal(err)
	}
	before := fileSet(t, fs)

	if db, err := Open(opts); err == nil {
		db.Close()
		t.Fatal("Open replayed a manifest damaged in the middle")
	} else if !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open = %v, want ErrCorruption", err)
	}
	if after := fileSet(t, fs); after != before {
		t.Fatalf("failed Open changed the files:\nbefore %s\n after %s", before, after)
	}
}

// fileSet lists the store's files, sorted and joined.
func fileSet(t *testing.T, fs storage.FS) string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// FuzzReplayManifest: Open on an arbitrary MANIFEST never panics, and a
// manifest Open accepts survives Close and a second Open with the same
// Version.
func FuzzReplayManifest(f *testing.F) {
	f.Add([]byte(strings.Join(parentManifest, "\n") + "\n"))
	f.Add([]byte(parentSnapshot + "\n"))
	for _, line := range parentManifest {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		fs := storage.NewMemFS()
		if err := storage.WriteFile(fs, manifestName, manifest); err != nil {
			t.Fatal(err)
		}
		opts := smallOpts(fs)
		opts.DisableAutoCompaction = true
		opts.BackgroundWorkers = 1
		db, err := Open(opts)
		if err != nil {
			return
		}
		want := versionDump(db.Version())
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(opts)
		if err != nil {
			t.Fatalf("reopen of an accepted manifest failed: %v", err)
		}
		defer db.Close()
		if got := versionDump(db.Version()); got != want {
			t.Fatalf("version after reopen:\n%s\nwant:\n%s", got, want)
		}
	})
}

// versionDump renders every table of v with its level and full metadata.
func versionDump(v *Version) string {
	var b strings.Builder
	for l, tables := range v.Levels {
		for _, tm := range tables {
			fmt.Fprintf(&b, "L%d %+v\n", l, *tm)
		}
	}
	return b.String()
}
