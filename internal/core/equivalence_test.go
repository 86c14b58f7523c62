package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pcplsm/internal/compress"
	"pcplsm/internal/ikey"
	"pcplsm/internal/storage"
)

// TestEnginesEquivalentUnderRandomConfigs is the randomized engine
// equivalence property: for random input shapes and random engine knobs
// (sub-task size, parallelism, codec, block/table sizes, tombstone policy,
// retention), every procedure — SCP, PCP, C-PPCP, S-PPCP — must produce
// exactly the same logical entry stream.
func TestEnginesEquivalentUnderRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	codecs := []compress.Kind{compress.None, compress.Snappy, compress.Flate}

	for trial := 0; trial < 8; trial++ {
		// Random inputs: 1-4 tables, overlapping key spaces, duplicate user
		// keys across tables, occasional tombstones.
		fs := storage.NewMemFS()
		nTables := 1 + rng.Intn(4)
		var inputs []*TableSource
		var allEntries [][]kv
		keySpace := 2000 + rng.Intn(20000)
		for ti := 0; ti < nTables; ti++ {
			n := 300 + rng.Intn(1500)
			entries := genEntries(n, uint64(ti*1_000_000+1), keySpace, rng.Int63())
			allEntries = append(allEntries, entries)
			inputs = append(inputs,
				buildInputTable(t, fs, fmt.Sprintf("in%d.sst", ti), append([]kv(nil), entries...), 512+rng.Intn(2048)))
		}
		dropTombs := rng.Intn(2) == 0
		var retain uint64
		if rng.Intn(3) == 0 {
			retain = uint64(rng.Intn(2_000_000)) // random snapshot pin
		}
		base := Config{
			SubtaskSize:     int64(1<<10 + rng.Intn(64<<10)),
			BlockSize:       512 + rng.Intn(4096),
			TableSize:       int64(8<<10 + rng.Intn(64<<10)),
			Codec:           compress.MustByKind(codecs[rng.Intn(len(codecs))]),
			DropTombstones:  dropTombs,
			RetainSeq:       retain,
			BloomBitsPerKey: rng.Intn(2) * 10,
		}

		collect := func(name string, cfg Config) []kv {
			res, err := Run(cfg, inputs, memSink(fs, fmt.Sprintf("o-%s-%d-", name, trial)))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			return collectOutputs(t, fs, res.Outputs)
		}

		scpCfg := base
		scpCfg.Mode = ModeSCP
		ref := collect("scp", scpCfg)

		variants := map[string]func(Config) Config{
			"pcp":    func(c Config) Config { c.Mode = ModePCP; return c },
			"c-ppcp": func(c Config) Config { c.Mode = ModePCP; c.ComputeParallel = 2 + rng.Intn(3); return c },
			"s-ppcp": func(c Config) Config { c.Mode = ModePCP; c.IOParallel = 2 + rng.Intn(3); return c },
		}
		for name, mk := range variants {
			got := collect(name, mk(base))
			if len(got) != len(ref) {
				t.Fatalf("trial %d %s: %d entries vs scp %d (cfg %+v)",
					trial, name, len(got), len(ref), base)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("trial %d %s: entry %d differs: %+v vs %+v",
						trial, name, i, got[i], ref[i])
				}
			}
		}

		// Sanity against first principles: entries are sorted, unique per
		// (user, seq), and every surviving user key's newest version matches
		// the newest version across all inputs when no retention is pinned.
		for i := 1; i < len(ref); i++ {
			a := ikey.Make([]byte(ref[i-1].user), ref[i-1].seq, ref[i-1].kind)
			b := ikey.Make([]byte(ref[i].user), ref[i].seq, ref[i].kind)
			if ikey.Compare(a, b) >= 0 {
				t.Fatalf("trial %d: output out of order at %d", trial, i)
			}
		}
		if retain == 0 {
			want := referenceMerge(allEntries, dropTombs)
			if len(want) != len(ref) {
				t.Fatalf("trial %d: reference %d entries, engines produced %d", trial, len(want), len(ref))
			}
		}
	}
}
