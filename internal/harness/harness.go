// Package harness reproduces every figure of the paper's evaluation
// (§IV). Each Fig* function runs the experiment at a configurable scale
// and returns a Table holding the same rows/series the paper plots;
// cmd/pcpbench prints them and EXPERIMENTS.md records paper-vs-measured.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pcplsm/internal/compress"
	"pcplsm/internal/core"
	"pcplsm/internal/device"
	"pcplsm/internal/ikey"
	"pcplsm/internal/lsm"
	"pcplsm/internal/sstable"
	"pcplsm/internal/storage"
	"pcplsm/internal/workload"
)

// Table is one experiment's output: named columns and formatted rows.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-form annotation.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale trades experiment fidelity for runtime. The paper loaded up to
// 80 million entries on real hardware; Quick runs in seconds on simulated
// devices, Full in minutes.
type Scale struct {
	Name string
	// TimeScale multiplies simulated device service times. It must equal
	// CPUDilation for faithful CPU-vs-I/O ratios; smaller values speed
	// experiments up but shift every configuration toward CPU-bound.
	TimeScale float64
	// CPUDilation emulates the paper's multi-core testbed on small hosts:
	// compute steps are stretched D× by sleeping, so parallel compute
	// workers overlap even on one core (see core.Config.CPUDilation).
	// TimeScale must be multiplied by the same factor.
	CPUDilation int
	// CompactionBytes is the upper-component input for isolated-compaction
	// experiments (Figures 5, 8, 9, 11a).
	CompactionBytes int64
	// Fig10Entries are the working-set sizes swept in Figure 10/12 load
	// experiments.
	Fig10Entries []int
	// Fig12Entries is the fixed load for the PPCP sweeps.
	Fig12Entries int
	// MaxDisks / MaxWorkers bound the Figure 12 sweeps.
	MaxDisks, MaxWorkers int
}

// Quick finishes each figure in a few seconds (unit tests, smoke runs).
func Quick() Scale {
	return Scale{
		Name:            "quick",
		TimeScale:       4.0,
		CPUDilation:     4,
		CompactionBytes: 4 << 20,
		Fig10Entries:    []int{20_000, 40_000, 80_000},
		Fig12Entries:    40_000,
		MaxDisks:        6,
		MaxWorkers:      6,
	}
}

// Full runs larger sweeps (cmd/pcpbench default).
func Full() Scale {
	return Scale{
		Name:            "full",
		TimeScale:       4.0,
		CPUDilation:     4,
		CompactionBytes: 16 << 20,
		Fig10Entries:    []int{50_000, 100_000, 200_000, 400_000},
		Fig12Entries:    150_000,
		MaxDisks:        8,
		MaxWorkers:      8,
	}
}

// engine stamps scale-level engine settings onto a base configuration.
func (sc Scale) engine(base core.Config) core.Config {
	base.CPUDilation = sc.CPUDilation
	return base
}

// defaultValueSize matches the paper (100-byte values, 16-byte keys).
const (
	defaultValueSize = 100
	defaultKeySize   = 16
	defaultBlockSize = 4 << 10
	defaultTableSize = 2 << 20
)

// simEnv is a simulated storage environment for isolated compactions.
type simEnv struct {
	fs   *storage.SimFS
	devs []*device.Device
}

// newSimEnv builds a SimFS over fresh devices.
func newSimEnv(dev string, disks int, raid0 bool, timeScale float64) (*simEnv, error) {
	model, err := device.ByName(dev)
	if err != nil {
		return nil, err
	}
	if disks <= 0 {
		disks = 1
	}
	devs := make([]*device.Device, disks)
	for i := range devs {
		devs[i] = device.New(model, timeScale)
	}
	placement := storage.PlaceByFile
	if raid0 {
		placement = storage.PlaceStripe
	}
	return &simEnv{
		fs:   storage.NewSimFS(storage.NewMemFS(), devs, placement, 128<<10),
		devs: devs,
	}, nil
}

// buildInput writes one input table holding entries for user keys
// {offset, offset+stride, ...} until the table reaches aboutBytes.
// Returns the table name.
func buildInput(fs storage.FS, name string, aboutBytes int64, valueSize, blockSize int,
	codec compress.Codec, seqBase uint64, stride, offset int) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{
		BlockSize: blockSize,
		Codec:     codec,
		Compare:   ikey.Compare,
	})
	i := 0
	for w.EstimatedSize() < aboutBytes {
		user := fmt.Sprintf("user%012d", offset+i*stride)
		val := makeValue(valueSize, uint64(offset+i*stride), seqBase)
		if err := w.Add(ikey.Make([]byte(user), seqBase+uint64(i), ikey.KindSet), val); err != nil {
			f.Close()
			return err
		}
		i++
	}
	if _, err := w.Finish(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// makeValue builds a ~50%-compressible value deterministic in (n, salt).
func makeValue(size int, n, salt uint64) []byte {
	v := make([]byte, size)
	x := n*0x9e3779b97f4a7c15 + salt + 1
	for i := 0; i < size/2; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// IsolatedConfig describes one isolated compaction run: a synthetic upper
// component merged with an overlapping lower component on simulated
// devices, without the rest of the DB.
type IsolatedConfig struct {
	Device     string
	Disks      int
	RAID0      bool
	TimeScale  float64
	UpperBytes int64 // input from C_i (the paper's "compaction size")
	LowerBytes int64 // overlapping data in C_i+1 (default 2× upper)
	ValueSize  int
	BlockSize  int
	Engine     core.Config
}

// RunIsolated builds inputs, runs one compaction, and returns its stats.
func RunIsolated(cfg IsolatedConfig) (core.Stats, error) {
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = defaultValueSize
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = defaultBlockSize
	}
	if cfg.LowerBytes <= 0 {
		cfg.LowerBytes = 2 * cfg.UpperBytes
	}
	env, err := newSimEnv(cfg.Device, cfg.Disks, cfg.RAID0, cfg.TimeScale)
	if err != nil {
		return core.Stats{}, err
	}
	codec := cfg.Engine.Codec
	if codec == nil {
		codec = compress.MustByKind(compress.Snappy)
	}

	// Lower component: even keys, old sequence numbers, split into
	// table-size files. Upper: every third key, newer sequence numbers.
	var inputs []*core.TableSource
	mkTables := func(prefix string, total int64, seqBase uint64, stride, offset int) error {
		n := int((total + defaultTableSize - 1) / defaultTableSize)
		per := total / int64(n)
		for t := 0; t < n; t++ {
			name := fmt.Sprintf("%s-%02d.sst", prefix, t)
			// Offset successive tables so their key ranges are disjoint
			// ascending chunks of the shared key space.
			tblOffset := offset + t*stride*int(per)/(defaultKeySize+cfg.ValueSize)
			if err := buildInput(env.fs, name, per, cfg.ValueSize, cfg.BlockSize,
				codec, seqBase, stride, tblOffset); err != nil {
				return err
			}
			f, err := env.fs.Open(name)
			if err != nil {
				return err
			}
			r, err := sstable.NewReader(f, ikey.Compare)
			if err != nil {
				return err
			}
			inputs = append(inputs, core.NewTableSource(r))
		}
		return nil
	}
	if err := mkTables("lower", cfg.LowerBytes, 1, 2, 0); err != nil {
		return core.Stats{}, err
	}
	if err := mkTables("upper", cfg.UpperBytes, 1<<40, 3, 0); err != nil {
		return core.Stats{}, err
	}

	// Building the inputs charged the devices; measure only the compaction.
	for _, d := range env.devs {
		d.ResetStats()
	}
	var n int
	sink := func() (string, storage.File, error) {
		n++
		name := fmt.Sprintf("out-%04d.sst", n)
		f, err := env.fs.Create(name)
		return name, f, err
	}
	res, err := core.Run(cfg.Engine, inputs, sink)
	if err != nil {
		return core.Stats{}, err
	}
	return res.Stats, nil
}

// LoadConfig describes a Figure-10/12-style full-store load.
type LoadConfig struct {
	Device    string
	Disks     int
	RAID0     bool
	TimeScale float64
	Entries   int
	ValueSize int
	Engine    core.Config
}

// LoadResult carries the metrics the paper plots per load.
type LoadResult struct {
	// IOPS is insert operations per second over the whole load, including
	// time waiting for compactions (stalls) — the paper's "throughput".
	IOPS float64
	// CompactionBandwidth is input bytes per second of compaction wall time.
	CompactionBandwidth float64
	// Stats is the DB's cumulative view.
	Stats lsm.Stats
}

// RunLoad loads an insert-only workload into a fresh store and drains all
// background work, returning the paper's two headline metrics.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = defaultValueSize
	}
	env, err := newSimEnv(cfg.Device, cfg.Disks, cfg.RAID0, cfg.TimeScale)
	if err != nil {
		return LoadResult{}, err
	}
	// Scaled-down geometry: proportional to the paper's (4 MiB memtable vs
	// tens of millions of entries), so the tree sees many flushes and
	// multi-level compactions. The sub-task size shrinks with the geometry
	// to keep per-compaction sub-task counts in the paper's effective range
	// (Figure 11(b): PCP needs ≥~6 sub-tasks per compaction).
	engine := cfg.Engine
	if engine.SubtaskSize == 0 {
		engine.SubtaskSize = 256 << 10
	}
	db, err := lsm.Open(lsm.Options{
		FS:                  env.fs,
		MemtableSize:        512 << 10,
		TableSize:           512 << 10,
		BlockSize:           defaultBlockSize,
		BaseLevelSize:       2 << 20,
		LevelMultiplier:     10,
		L0CompactionTrigger: 4,
		L0StallTrigger:      8,
		Compaction:          engine,
	})
	if err != nil {
		return LoadResult{}, err
	}
	defer db.Close()

	gen := workload.New(workload.Config{
		Entries:   cfg.Entries,
		KeySize:   defaultKeySize,
		ValueSize: cfg.ValueSize,
		KeySpace:  4 * cfg.Entries,
		Seed:      1,
	})
	start := time.Now()
	for {
		k, v, ok := gen.Next()
		if !ok {
			break
		}
		if err := db.Put(k, v); err != nil {
			return LoadResult{}, err
		}
	}
	if err := db.WaitIdle(); err != nil {
		return LoadResult{}, err
	}
	elapsed := time.Since(start)

	st := db.Stats()
	return LoadResult{
		IOPS:                float64(cfg.Entries) / elapsed.Seconds(),
		CompactionBandwidth: st.CompactionBandwidth(),
		Stats:               st,
	}, nil
}
