package lsm

import (
	"testing"

	"pcplsm/internal/storage"
)

// TestFlushEmptyAndSingle covers degenerate flushes: an empty memtable
// writes no table, and a one-entry memtable flushes to a readable table.
func TestFlushEmptyAndSingle(t *testing.T) {
	opts := smallOpts(storage.NewMemFS())
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	// Empty flush is a no-op.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Version().Levels[0]); got != 0 {
		t.Fatalf("empty flush created %d tables", got)
	}
	// Single entry.
	db.Put([]byte("only"), []byte("one"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Version().Levels[0]); got != 1 {
		t.Fatalf("single-entry flush made %d L0 tables, want 1", got)
	}
	v, err := db.Get([]byte("only"))
	if err != nil || string(v) != "one" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}
