package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pcplsm/internal/core"
	"pcplsm/internal/storage"
)

// TestRandomOpsAgainstModel drives the store with a long random operation
// sequence — puts, deletes, batches, point reads, scans, flushes, manual
// compactions and full close/reopen cycles — and checks every read against
// a reference map. This is the broadest integration property test in the
// suite: it exercises every layer (WAL, memtable, flush, all compaction
// engines, manifest recovery, iterators) under one oracle.
func TestRandomOpsAgainstModel(t *testing.T) {
	configs := map[string]core.Config{
		"scp":    {Mode: core.ModeSCP, SubtaskSize: 8 << 10},
		"pcp":    {Mode: core.ModePCP, SubtaskSize: 8 << 10},
		"c-ppcp": {Mode: core.ModePCP, SubtaskSize: 8 << 10, ComputeParallel: 2, IOParallel: 2},
	}
	for name, cc := range configs {
		cc := cc
		t.Run(name, func(t *testing.T) {
			fs := storage.NewMemFS()
			opts := smallOpts(fs)
			opts.Compaction = cc

			db := mustOpen(t, opts)
			defer func() { db.Close() }()
			ref := map[string]string{}
			rng := rand.New(rand.NewSource(0xD1CE))
			key := func() string { return fmt.Sprintf("key%06d", rng.Intn(3000)) }

			const steps = 12000
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 45: // put
					k, v := key(), fmt.Sprintf("v%d", step)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatalf("step %d put: %v", step, err)
					}
					ref[k] = v
				case r < 55: // delete
					k := key()
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					delete(ref, k)
				case r < 60: // batch
					var b Batch
					n := rng.Intn(20) + 1
					type op struct {
						k, v string
						del  bool
					}
					var ops []op
					for i := 0; i < n; i++ {
						k := key()
						if rng.Intn(4) == 0 {
							b.Delete([]byte(k))
							ops = append(ops, op{k: k, del: true})
						} else {
							v := fmt.Sprintf("b%d-%d", step, i)
							b.Put([]byte(k), []byte(v))
							ops = append(ops, op{k: k, v: v})
						}
					}
					if err := db.Write(&b); err != nil {
						t.Fatalf("step %d batch: %v", step, err)
					}
					for _, o := range ops {
						if o.del {
							delete(ref, o.k)
						} else {
							ref[o.k] = o.v
						}
					}
				case r < 90: // point read
					k := key()
					got, err := db.Get([]byte(k))
					want, ok := ref[k]
					if ok {
						if err != nil || string(got) != want {
							t.Fatalf("step %d: Get(%s) = %q,%v want %q", step, k, got, err, want)
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: Get(%s) = %q,%v want not-found", step, k, got, err)
					}
				case r < 93: // short scan
					it, err := db.NewIterator()
					if err != nil {
						t.Fatalf("step %d: iterator: %v", step, err)
					}
					start := key()
					var gotKeys []string
					for ok := it.Seek([]byte(start)); ok && len(gotKeys) < 10; ok = it.Next() {
						gotKeys = append(gotKeys, string(it.Key()))
					}
					it.Close()
					var wantKeys []string
					for k := range ref {
						if k >= start {
							wantKeys = append(wantKeys, k)
						}
					}
					sort.Strings(wantKeys)
					if len(wantKeys) > 10 {
						wantKeys = wantKeys[:10]
					}
					if len(gotKeys) != len(wantKeys) {
						t.Fatalf("step %d: scan from %s: %d keys, want %d", step, start, len(gotKeys), len(wantKeys))
					}
					for i := range wantKeys {
						if gotKeys[i] != wantKeys[i] {
							t.Fatalf("step %d: scan[%d] = %s, want %s", step, i, gotKeys[i], wantKeys[i])
						}
					}
				case r < 96: // flush
					if err := db.Flush(); err != nil {
						t.Fatalf("step %d: flush: %v", step, err)
					}
				case r < 98: // manual compaction of a random non-empty level
					v := db.Version()
					for l := 0; l < NumLevels-1; l++ {
						if len(v.Levels[l]) > 0 && rng.Intn(2) == 0 {
							if err := db.CompactLevel(l); err != nil {
								t.Fatalf("step %d: compact L%d: %v", step, l, err)
							}
							break
						}
					}
				default: // close + reopen (crash-free restart)
					if err := db.Close(); err != nil {
						t.Fatalf("step %d: close: %v", step, err)
					}
					db = mustOpen(t, opts)
				}
			}

			// Final full verification, including a complete scan.
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			if err := db.Version().checkInvariants(); err != nil {
				t.Fatal(err)
			}
			verifyAll(t, db, ref)
			it, err := db.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			count := 0
			for ok := it.First(); ok; ok = it.Next() {
				if want, ok := ref[string(it.Key())]; !ok || want != string(it.Value()) {
					t.Fatalf("final scan: %s=%q not in reference", it.Key(), it.Value())
				}
				count++
			}
			if count != len(ref) {
				t.Fatalf("final scan saw %d keys, reference has %d", count, len(ref))
			}
		})
	}
}
