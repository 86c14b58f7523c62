package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"pcplsm/internal/block"
	"pcplsm/internal/bloom"
	"pcplsm/internal/cache"
	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/device"
	"pcplsm/internal/ikey"
	"pcplsm/internal/memtable"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
	"pcplsm/internal/wal"
)

const (
	replayRecords = 50_000
	// Default geometry of the store (pcplsm.Options{}), repeated here because
	// the replay builds its tables from the layers, not through the store.
	blockBytes   = 4 << 10
	bloomBits    = 10
	cacheBytes   = 8 << 20
	memShards    = 4
	missBudget   = time.Second // most time the replay spends on uncached Gets
	maxRawBlocks = 2000
)

// replay is the traced run's second half: it pushes the first records of
// the workload through each internal layer's public functions, one span per
// call, so that a Put, a Get and a compaction can be attributed layer by
// layer. It uses its own files under dir, never the store's.
type replay struct {
	r    *run
	tr   *tracer
	ph   int32
	n    int
	base storage.FS // plain files
	fs   storage.FS // base, behind the workload's device model if it has one
	mem  *memtable.Memtable
	inA  []bool // by id: the record went to table A (even rank), else B
}

func (r *run) replayLayers(ph int32, dir string) error {
	base, err := storage.NewOSFS(dir)
	if err != nil {
		return err
	}
	p := &replay{r: r, tr: r.tr, ph: ph, base: base, fs: base,
		n: max(min(r.n, int(replayRecords*r.scale)), 200)}
	if r.cfg.w.Device != "" {
		p.fs, err = simulated(base, r.cfg.w.Device)
		if err != nil {
			return err
		}
	}
	if err := p.putPath(); err != nil {
		return err
	}
	if err := p.buildTables(); err != nil {
		return err
	}
	if err := p.getPath(); err != nil {
		return err
	}
	if err := p.blockLayers(); err != nil {
		return err
	}
	if err := p.isolatedCompactions(); err != nil {
		return err
	}
	l := r.layer
	l["lsm.put_residual_ns"] = r.e2e["put_p50_us"]*1e3 - l["wal.append_ns"] - l["memtable.put_ns"]
	l["lsm.get_residual_ns"] = 0
	if hot := l["client.get_hot_p50_us"]; hot > 0 {
		l["lsm.get_residual_ns"] = hot*1e3 - l["memtable.get_ns"] - l["bloom.probe_ns"] - l["sstable.get_hit_ns"]
	}
	return nil
}

func simulated(inner storage.FS, model string) (storage.FS, error) {
	m, err := device.ByName(model)
	if err != nil {
		return nil, err
	}
	return storage.NewSimFS(inner, []*device.Device{device.New(m, 1.0)}, storage.PlaceByFile, 0), nil
}

// putPath replays the commit path: one WAL record and one memtable insert
// per Put.
func (p *replay) putPath() error {
	f, err := p.fs.Create("replay.log")
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	p.mem = memtable.New(memtable.Config{Shards: memShards})
	ks := p.r.ks
	var rec, val []byte
	for i := 0; i < p.n; i++ {
		id, seq := uint64(i), uint64(i+1)
		key := ks.key(id)
		val = ks.value(val, id, 0)
		op := p.tr.begin("replay.put", p.ph)
		// The store's record: first sequence, count, then kind/key/value.
		rec = binary.AppendUvarint(rec[:0], seq)
		rec = binary.AppendUvarint(rec, 1)
		rec = append(rec, byte(ikey.KindSet))
		rec = binary.AppendUvarint(rec, uint64(len(key)))
		rec = append(rec, key...)
		rec = binary.AppendUvarint(rec, uint64(len(val)))
		rec = append(rec, val...)
		sp := p.tr.begin("wal.append", op)
		err := w.Append(rec)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		sp = p.tr.begin("memtable.put", op)
		p.mem.Put(seq, key, val)
		p.tr.end(sp)
		p.tr.end(op)
	}
	if err := w.Close(); err != nil {
		return err
	}
	size, err := p.fs.Size("replay.log")
	if err != nil {
		return err
	}
	l := p.r.layer
	l["wal.append_ns"] = median(p.tr.durations("wal.append"))
	l["wal.bytes_per_put"] = float64(size) / float64(p.n)
	l["memtable.put_ns"] = median(p.tr.durations("memtable.put"))
	return nil
}

// buildTables dumps the memtable into two tables with interleaved keys (the
// shape of a level-0 table over a level-1 table) the way a flush does, and
// times the layers a table is built from on the same entries.
func (p *replay) buildTables() error {
	type entry struct{ key, val []byte }
	entries := make([]entry, 0, p.n)
	sp := p.tr.begin("memtable.iter", p.ph)
	it := p.mem.NewIter()
	for ok := it.First(); ok; ok = it.Next() {
		entries = append(entries, entry{it.Key(), it.Value()})
	}
	p.tr.end(sp)
	l := p.r.layer
	l["memtable.iter_next_ns"] = p.tr.sum("memtable.iter") * 1e9 / float64(len(entries))

	p.inA = make([]bool, p.n)
	var written int64
	for t, name := range []string{"a.sst", "b.sst"} {
		raw, err := p.fs.Create(name)
		if err != nil {
			return err
		}
		sp := p.tr.begin("sstable.write", p.ph)
		f := storage.NewBufferedFile(raw, 0)
		w := sstable.NewWriter(f, sstable.WriterOptions{BlockSize: blockBytes, Compare: ikey.Compare,
			FilterBitsPerKey: bloomBits, FilterKey: ikey.UserKey})
		for i := t; i < len(entries); i += 2 {
			if err := w.Add(entries[i].key, entries[i].val); err != nil {
				return err
			}
		}
		meta, err := w.Finish()
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		p.tr.end(sp)
		if err != nil {
			return err
		}
		written += meta.FileSize
		if t == 0 {
			for i := 0; i < len(entries); i += 2 {
				num, _ := parseKey(ikey.UserKey(entries[i].key))
				p.inA[p.r.ks.id(num)] = true
			}
		}
	}
	l["sstable.write_mib_s"] = float64(written) / mib / p.tr.sum("sstable.write")

	// The same entries through the block builder, the codec and the filter
	// builder, one span per block.
	codec := compress.MustByKind(compress.Snappy)
	b := block.NewBuilder(block.DefaultRestartInterval, ikey.Compare)
	var plainBytes, packedBytes int
	var packed []byte
	users := make([][]byte, 0, len(entries))
	sp = p.tr.begin("block.build", p.ph)
	for i, e := range entries {
		b.Add(e.key, e.val)
		users = append(users, ikey.UserKey(e.key))
		if b.SizeEstimate() < blockBytes && i != len(entries)-1 {
			continue
		}
		plain := b.Finish()
		p.tr.end(sp)
		sp = p.tr.begin("compress.encode", p.ph)
		packed = codec.Compress(packed[:0], plain)
		p.tr.end(sp)
		plainBytes += len(plain)
		packedBytes += len(packed)
		b.Reset()
		sp = p.tr.begin("block.build", p.ph)
	}
	p.tr.end(sp)
	sp = p.tr.begin("bloom.build", p.ph)
	filter := bloom.Build(users, bloomBits)
	p.tr.end(sp)
	if len(filter) == 0 {
		return fmt.Errorf("replay: empty bloom filter")
	}
	l["block.build_ns_entry"] = p.tr.sum("block.build") * 1e9 / float64(len(entries))
	l["compress.encode_mib_s"] = float64(plainBytes) / mib / p.tr.sum("compress.encode")
	l["compress.ratio"] = float64(plainBytes) / float64(packedBytes)
	l["bloom.build_ns_key"] = p.tr.sum("bloom.build") * 1e9 / float64(len(users))
	return nil
}

func (p *replay) openTable(name string) (*sstable.Reader, error) {
	f, err := p.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return sstable.NewReader(f, ikey.Compare) // NewReader owns f
}

// getPath replays point reads: memtable probe, one filter probe per table,
// then the table lookup, uncached (miss) and cached (hit).
func (p *replay) getPath() error {
	ks := p.r.ks
	l := p.r.layer
	var cold, warm [2]*sstable.Reader
	blocks := cache.New(cacheBytes)
	for t, name := range []string{"a.sst", "b.sst"} {
		for rep := 0; rep < 5; rep++ {
			sp := p.tr.begin("sstable.open", p.ph)
			r, err := p.openTable(name)
			p.tr.end(sp)
			if err != nil {
				return err
			}
			switch rep {
			case 0:
				cold[t] = r
			case 1:
				r.SetBlockCache(blocks, uint64(t+1))
				warm[t] = r
			default:
				r.Close()
			}
		}
		defer cold[t].Close()
		defer warm[t].Close()
	}
	l["sstable.open_us"] = median(p.tr.durations("sstable.open")) / 1e3

	var scratch []byte
	lookup := func(tables [2]*sstable.Reader, spanName string, id uint64, parent int32) error {
		key := ks.key(id)
		search := ikey.SearchKey(key, ikey.MaxSeq)
		for t, r := range tables {
			holds := p.inA[id] == (t == 0)
			sp := p.tr.begin("bloom.probe", parent)
			may := r.MayContain(key)
			p.tr.end(sp)
			if !may {
				if holds {
					return fmt.Errorf("replay: filter denies a key its table holds")
				}
				continue
			}
			sp = p.tr.begin(spanName, parent)
			k, v, ok, err := r.Get(search)
			p.tr.end(sp)
			if err != nil {
				return err
			}
			found := ok && string(ikey.UserKey(k)) == string(key)
			if found != holds || (found && !ks.matches(v, id, 0, &scratch)) {
				return fmt.Errorf("replay: table lookup of id %d disagrees with what was written", id)
			}
		}
		return nil
	}

	negatives, falsePositives := 0, 0
	start := time.Now()
	for i := 0; i < p.n && time.Since(start) < time.Duration(p.r.scale*float64(missBudget)); i++ {
		id := uint64(i)
		op := p.tr.begin("replay.get", p.ph)
		sp := p.tr.begin("memtable.get", op)
		_, _, ok := p.mem.Get(ks.key(id), ikey.MaxSeq)
		p.tr.end(sp)
		if !ok {
			return fmt.Errorf("replay: memtable lost id %d", id)
		}
		if err := lookup(cold, "sstable.get_miss", id, op); err != nil {
			return err
		}
		p.tr.end(op)
	}
	// False positives: probe each table's filter for the other table's keys.
	for i := 0; i < p.n; i++ {
		other := cold[1]
		if !p.inA[i] {
			other = cold[0]
		}
		negatives++
		if other.MayContain(ks.key(uint64(i))) {
			falsePositives++
		}
	}
	// The hot set of the replay: few enough keys for every block to stay cached.
	hot := min(hotKeys, p.n)
	for pass := 0; pass < 11; pass++ {
		name := "sstable.get_hit"
		if pass == 0 {
			name = "sstable.get_warm"
		}
		for i := 0; i < hot; i++ {
			if err := lookup(warm, name, uint64(i), p.ph); err != nil {
				return err
			}
		}
	}
	l["memtable.get_ns"] = median(p.tr.durations("memtable.get"))
	l["bloom.probe_ns"] = median(p.tr.durations("bloom.probe"))
	l["bloom.fp_rate"] = 100 * float64(falsePositives) / float64(negatives)
	l["sstable.get_miss_us"] = median(p.tr.durations("sstable.get_miss")) / 1e3
	l["sstable.get_hit_ns"] = median(p.tr.durations("sstable.get_hit"))
	return nil
}

// blockLayers walks table A block by block through the layers under a table
// read: checksum, codec, block cache, block iterator, and the table iterator
// on top.
func (p *replay) blockLayers() error {
	r, err := p.openTable("a.sst")
	if err != nil {
		return err
	}
	defer r.Close()
	l := p.r.layer
	blocks := cache.New(cacheBytes)
	var raw []byte
	var rawBytes, plainBytes, entries int
	bi := new(block.Iter)
	index := r.IndexEntries()
	if len(index) > maxRawBlocks {
		index = index[:maxRawBlocks]
	}
	for _, e := range index {
		raw, err = r.ReadRaw(raw[:0], e.Handle)
		if err != nil {
			return err
		}
		sp := p.tr.begin("checksum.verify", p.ph)
		payload, err := sstable.VerifyBlockChecksum(raw)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		sp = p.tr.begin("compress.decode", p.ph)
		plain, err := sstable.DecompressBlock(nil, payload)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		rawBytes += len(raw)
		plainBytes += len(plain)
		key := cache.Key{ID: 1, Offset: int64(e.Handle.Offset)}
		sp = p.tr.begin("cache.put", p.ph)
		blocks.Put(key, plain)
		p.tr.end(sp)
		sp = p.tr.begin("cache.get", p.ph)
		got := blocks.Get(key)
		p.tr.end(sp)
		if len(got) != len(plain) {
			return fmt.Errorf("replay: cache lost a block it was just given")
		}
		sp = p.tr.begin("block.seek", p.ph)
		err = bi.Reset(plain, ikey.Compare)
		ok := err == nil && bi.Seek(e.LastKey)
		p.tr.end(sp)
		if !ok || ikey.Compare(bi.Key(), e.LastKey) != 0 {
			return fmt.Errorf("replay: block seek missed the block's last key")
		}
		sp = p.tr.begin("block.next", p.ph)
		for ok := bi.First(); ok; ok = bi.Next() {
			entries++
		}
		p.tr.end(sp)
	}
	l["checksum.mib_s"] = float64(rawBytes) / mib / p.tr.sum("checksum.verify")
	l["compress.decode_mib_s"] = float64(plainBytes) / mib / p.tr.sum("compress.decode")
	l["cache.put_ns"] = median(p.tr.durations("cache.put"))
	l["cache.get_ns"] = median(p.tr.durations("cache.get"))
	l["block.seek_ns"] = median(p.tr.durations("block.seek"))
	l["block.next_ns"] = p.tr.sum("block.next") * 1e9 / float64(entries)

	sp := p.tr.begin("sstable.iter", p.ph)
	it := r.NewIter()
	n := 0
	var prev []byte
	sorted := true
	for ok := it.First(); ok; ok = it.Next() {
		sorted = sorted && (prev == nil || ikey.Compare(prev, it.Key()) < 0)
		prev = append(prev[:0], it.Key()...)
		n++
	}
	err = it.Err()
	it.Close()
	p.tr.end(sp)
	if err != nil {
		return err
	}
	if !sorted || n != (p.n+1)/2 {
		return fmt.Errorf("replay: table iterator returned %d entries, want %d in order", n, (p.n+1)/2)
	}
	l["sstable.iter_next_ns"] = p.tr.sum("sstable.iter") * 1e9 / float64(n)
	return nil
}

// isolatedCompactions merges tables A and B with core.Run, sequentially and
// pipelined, on a fresh device of each kind: the PCP gain with nothing else
// running, to set against the live store's.
func (p *replay) isolatedCompactions() error {
	for _, dev := range []string{"ssd", "hdd"} {
		for _, mode := range []core.Mode{core.ModeSCP, core.ModePCP} {
			fs, err := simulated(p.base, dev)
			if err != nil {
				return err
			}
			var inputs []*core.TableSource
			for _, name := range []string{"a.sst", "b.sst"} {
				f, err := fs.Open(name)
				if err != nil {
					return err
				}
				r, err := sstable.NewReader(f, ikey.Compare)
				if err != nil {
					return err
				}
				defer r.Close()
				inputs = append(inputs, core.NewTableSource(r))
			}
			var mu sync.Mutex // core.Run may call the sink from several write workers
			var outputs []string
			sink := func() (string, storage.File, error) {
				mu.Lock()
				defer mu.Unlock()
				name := fmt.Sprintf("iso-%s-%d-%d.sst", dev, mode, len(outputs))
				outputs = append(outputs, name)
				f, err := fs.Create(name)
				return name, f, err
			}
			tag := "scp"
			if mode == core.ModePCP {
				tag = "pcp"
			}
			sp := p.tr.begin("core.run."+dev+"."+tag, p.ph)
			res, err := core.Run(core.Config{Mode: mode, BloomBitsPerKey: bloomBits}, inputs, sink)
			p.tr.end(sp)
			if err != nil {
				return err
			}
			if res.Stats.EntriesOut != int64(p.n) {
				return fmt.Errorf("replay: isolated %s compaction wrote %d entries, want %d", tag, res.Stats.EntriesOut, p.n)
			}
			p.r.layer["core.iso_"+dev+"_"+tag+"_mib_s"] = res.Stats.Bandwidth() / mib
			for _, name := range outputs {
				if err := p.base.Remove(name); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
