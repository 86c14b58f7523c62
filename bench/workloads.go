package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"pcplsm"
	"pcplsm/internal/device"
)

// workloadDef is one set of inputs. Records is the load at the nominal run
// length; a shorter or longer -seconds scales it, and the read sub-phases
// with it.
type workloadDef struct {
	Name    string
	Why     string
	Device  string // simulated device model; "" stores plain files, no sleeps
	Records int
	VLen    int
	Mixed   bool
}

var workloads = []workloadDef{
	{Name: "load-ssd", Device: "ssd", Records: 200_000, VLen: 1000,
		Why: "1 KB records on a simulated SSD: compaction-bound (the writer stalls for half of the fill, the device is 85% busy), so compaction volume and overlap set the put rate"},
	{Name: "load-hdd", Device: "hdd", Records: 50_000, VLen: 1000,
		Why: "same load on a simulated HDD: I/O-bound (S1+S7 dominate), so a compute saving should move nothing and an overlap change should"},
	{Name: "kv-os", Records: 2_000_000, VLen: 100,
		Why: "the paper's 116 B record on real files, no sleeps: foreground-bound, so commit queue, wal and memtable set the put rate and reads are CPU-bound"},
	{Name: "mixed-os", Records: 1_000_000, VLen: 100, Mixed: true,
		Why: "paced overwrites beside a concurrent reader on real files: locks, cache pre-warm and space amplification under read and write at once"},
}

const (
	// nominalSeconds is the run length the record counts are sized for; it
	// is BENCHMARK.json's run_seconds.
	nominalSeconds = 20
	readRounds     = 3
	shortScan      = 10
	longScan       = 10_000
	reopenSample   = 10_000
	// mixedPutsPerSecond paces the mixed-os writer: one overwrite per preloaded
	// key in 15 s, which leaves the reader time for three rounds. Unpaced, the
	// writer, the reader and two background workers fight over two CPUs and
	// no rate repeats within 15%.
	mixedPutsPerSecond = 1_000_000 / 15.0
	// The fill is cut into writeChunks equal chunks, and the counters are read
	// at every boundary, so that each write-side metric has that many values
	// spread over the fill. Compaction counters move only when a compaction
	// ends, so they are read over writeWindows coarser windows.
	writeChunks  = 256
	writeWindows = 16
	putSamples   = 125_000
	drainPoll    = 5 * time.Millisecond
	// Operations per timed slice of each read sub-phase.
	hotSlice  = 256
	coldSlice = 64
	scanSlice = 512
)

type config struct {
	w         workloadDef
	seed      uint64
	seconds   float64
	traced    bool
	traceFile string
	dir       string
	corruptID int64
}

// failures counts the correctness probes that fired; each adds one failed
// operation.
type failures struct {
	WrongValue  int64 `json:"wrong_value"`
	Missing     int64 `json:"missing_present_key"`
	FoundAbsent int64 `json:"found_absent_key"`
	BadScan     int64 `json:"bad_scan"`
	Reopen      int64 `json:"post_reopen_mismatch"`
	Errors      int64 `json:"errors"`
}

func (f failures) total() int64 {
	return f.WrongValue + f.Missing + f.FoundAbsent + f.BadScan + f.Reopen + f.Errors
}

func (f *failures) add(o failures) {
	f.WrongValue += o.WrongValue
	f.Missing += o.Missing
	f.FoundAbsent += o.FoundAbsent
	f.BadScan += o.BadScan
	f.Reopen += o.Reopen
	f.Errors += o.Errors
}

// result is what one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Failures  failures           `json:"failures"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	WallS     float64            `json:"wall_s"`
}

// run is the state of one workload run.
type run struct {
	cfg     config
	scale   float64
	n       int
	scanLen int
	subDur  time.Duration
	// scanSlice is how many keys of a long scan one timed slice covers.
	scanSlice int
	work      string
	ks        *keyspace
	plan      *readPlan
	db        *pcplsm.DB
	dir       string
	tr        *tracer
	root      int32
	setups    []float64 // seconds each set-up took

	// overwritten marks the ids whose live value is generation 1 (mixed-os).
	overwritten []uint64
	// live is set while the mixed-os writer runs: a reader cannot know which
	// generation of a key it should see, so it accepts either.
	live atomic.Bool

	puts     int // Puts the write phase issues
	putEvery int // one Put in putEvery is timed
	putLat   []float64
	e2e      map[string]float64
	layer    map[string]float64
}

// client is one closed-loop caller: the writer, the reader, or both in turn.
type client struct {
	r        *run
	tr       *tracer
	fails    failures
	ops      int64 // operations attempted: a Put, a Get, a whole scan
	calls    int64 // API calls completed: Put, Get, Seek, Next
	scratch  []byte
	hotPos   int
	coldPos  int
	startPos int
	hotLat   []float64
	coldLat  []float64
	timed    int64 // clock reads made only because tracing is on
	longPos  int
	// scanRates, when set, receives the rate of every scanSlice keys a scan
	// steps over.
	scanRates *[]float64
}

// counters is a point-in-time reading of everything the store and the
// process expose through public functions.
type counters struct {
	t    time.Time
	cpu  time.Duration
	st   pcplsm.Stats
	dev  device.Stats
	lats int // put latencies sampled so far
	// tables is the size of the table files, where it was asked for.
	tables int64
}

func (r *run) read() counters {
	c := counters{t: time.Now(), cpu: cpuTime(), st: r.db.Stats(), lats: len(r.putLat)}
	for _, d := range r.db.DeviceStats() {
		c.dev.Reads += d.Reads
		c.dev.Writes += d.Writes
		c.dev.ReadBytes += d.ReadBytes
		c.dev.WriteBytes += d.WriteBytes
		c.dev.BusyRead += d.BusyRead
		c.dev.BusyWrite += d.BusyWrite
		c.dev.QueueWait += d.QueueWait
	}
	return c
}

func (r *run) open(dir string) (*pcplsm.DB, error) {
	o := pcplsm.Options{Dir: dir}
	if r.cfg.w.Device != "" {
		o.Simulate = &pcplsm.SimulatedStorage{Device: r.cfg.w.Device, Disks: 1, TimeScale: 1.0}
	}
	return pcplsm.Open(o)
}

// newRun sizes a run: record count, scan length and sub-phase length all
// scale with -seconds.
func newRun(cfg config) *run {
	r := &run{cfg: cfg, scale: cfg.seconds / nominalSeconds,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	r.n = max(int(float64(cfg.w.Records)*r.scale), 400)
	r.scanLen = min(longScan, r.n/4)
	r.subDur = time.Duration(r.scale * float64(time.Second))
	r.scanSlice = min(scanSlice, r.scanLen/4)
	return r
}

// runWorkload runs one workload from set-up to the post-reopen check.
func runWorkload(cfg config) (*result, error) {
	start := time.Now()
	r := newRun(cfg)
	if cfg.traced {
		r.tr = newTracer(start)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, cfg.w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r.work = work
	r.root = r.tr.begin("run", -1)

	s, err := r.setup()
	if err != nil {
		return nil, err
	}
	r.ks, r.plan, r.db, r.dir = s.ks, s.plan, s.db, s.dir
	if cfg.w.Mixed {
		r.overwritten = make([]uint64, (r.n+63)/64)
	}
	cl := &client{r: r, tr: r.tr}
	total := failures{}
	var attempted int64

	tablesAtRead := 0
	var reads readStats
	if cfg.w.Mixed {
		reader, err := r.writeMixed(cl, &reads)
		if err != nil {
			return nil, err
		}
		total.add(reader.fails)
		attempted += reader.ops
		cl.hotLat, cl.coldLat = reader.hotLat, reader.coldLat
		for _, n := range r.db.Levels() {
			tablesAtRead += n
		}
		if err := r.setupAgain(); err != nil {
			return nil, err
		}
	} else {
		if err := r.writeLoad(cl); err != nil {
			return nil, err
		}
		if err := r.setupAgain(); err != nil {
			return nil, err
		}
		if err := r.settle(); err != nil {
			return nil, err
		}
		for _, n := range r.db.Levels() {
			tablesAtRead += n
		}
		if err := r.readSuite(cl, &reads); err != nil {
			return nil, err
		}
	}
	ph := r.tr.begin("report", r.root)
	reads.report(r)
	r.latencies(cl)
	r.layer["lsm.tables_per_iterator"] = float64(tablesAtRead)
	r.e2e["peak_rss_mib"] = peakRSSMiB()
	r.tr.end(ph)

	if err := r.reopenVerify(cl); err != nil {
		return nil, err
	}
	if err := r.setupAgain(); err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = favourable(r.setups, "lower")
	if cfg.traced {
		ph := r.tr.begin("replay", r.root)
		if err := r.replayLayers(ph, filepath.Join(work, "replay")); err != nil {
			return nil, err
		}
		r.tr.end(ph)
	}
	r.tr.end(r.root)

	total.add(cl.fails)
	attempted += cl.ops
	res := &result{Workload: cfg.w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Host: readHost(cfg.w.Device, cfg.dir), Attempted: attempted, Failed: total.total(), Failures: total,
		EndToEnd: r.e2e, WallS: time.Since(start).Seconds()}
	if cfg.traced {
		res.PerLayer = r.layer
		if cfg.traceFile != "" {
			id := fmt.Sprintf("%s-seed%d", cfg.w.Name, cfg.seed)
			if err := r.tr.write(cfg.traceFile, id, res.Host); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// prepared is what one set-up produces.
type prepared struct {
	ks   *keyspace
	plan *readPlan
	db   *pcplsm.DB
	dir  string
}

// setup generates the inputs, opens a store in a fresh directory and, for
// mixed-os, preloads it, and records how long that took.
func (r *run) setup() (prepared, error) {
	ph := r.tr.begin("setup", r.root)
	defer r.tr.end(ph)
	return r.prepare()
}

func (r *run) prepare() (prepared, error) {
	t0 := time.Now()
	var s prepared
	s.ks = newKeyspace(r.cfg.seed, r.n, r.cfg.w.VLen)
	s.ks.corruptID = r.cfg.corruptID
	s.plan = newReadPlan(s.ks, r.scanLen)
	s.dir = filepath.Join(r.work, fmt.Sprintf("store%d", len(r.setups)))
	db, err := r.open(s.dir)
	if err != nil {
		return s, err
	}
	s.db = db
	if r.cfg.w.Mixed {
		if err := preload(s); err != nil {
			return s, err
		}
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return s, nil
}

// setupAgain repeats the set-up between two phases and throws the result
// away. One set-up takes 0.03 to 2 s, less than a slow spell of the host
// lasts, so repeats made back to back would all be slow or all be fast; made
// at points spread over the run, some of them see the host at full speed.
func (r *run) setupAgain() error {
	ph := r.tr.begin("setup.again", r.root)
	defer r.tr.end(ph)
	s, err := r.prepare()
	if err != nil {
		return err
	}
	if err := s.db.Close(); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

// preload writes generation 0 of every key in key order, in batches: the
// flushed tables do not overlap, so they sink by trivial moves.
func preload(s prepared) error {
	var b pcplsm.Batch
	var val []byte
	for rank, num := range s.ks.sorted {
		id := s.ks.id(num)
		val = s.ks.value(val, id, 0)
		b.Put(s.ks.key(id), val)
		if b.Len() == 1000 || rank == s.ks.n-1 {
			if err := s.db.Write(&b); err != nil {
				return err
			}
			b.Reset()
		}
	}
	return s.db.WaitIdle()
}

// gen returns the generation of id that must be live once writes stopped.
func (r *run) gen(id uint64) uint8 {
	if r.overwritten != nil && r.overwritten[id/64]>>(id%64)&1 == 1 {
		return 1
	}
	return 0
}

// put issues one Put, timing one in r.putEvery of them (all of them when
// traced).
func (c *client) put(i int, id uint64, gen uint8) {
	r := c.r
	c.scratch = r.ks.value(c.scratch, id, gen)
	sample := i%r.putEvery == 0 || c.tr != nil
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	err := r.db.Put(r.ks.key(id), c.scratch)
	if sample {
		r.putLat = append(r.putLat, float64(time.Since(t0)))
		if i%r.putEvery != 0 {
			c.timed += 2
		}
	}
	c.ops++
	c.calls++
	if err != nil {
		c.fails.Errors++
	}
}

// writePhase is fill then drain. pick names the key and generation of the
// i-th Put; during starts whatever runs beside the fill and returns what
// stops it. The counters are read at every chunk boundary of the fill and
// after the drain.
func (r *run) writePhase(c *client, pick func(i int) (uint64, uint8), during func(parent int32) (stop func())) error {
	ph := r.tr.begin("write", r.root)
	defer r.tr.end(ph)
	// 1 in 16 of kv-os's 2M Puts; every one of a load too small for that to
	// leave a steady median per window.
	r.putEvery = max(min(16, r.puts/putSamples), 1)
	r.putLat = make([]float64, 0, r.puts)
	chunk := max(r.puts/writeChunks, 1)
	runtime.GC()
	fill := r.tr.begin("fill", ph)
	stop := during(fill)
	marks := make([]counters, 0, writeChunks+2)
	marks = append(marks, r.read())
	batch := c.tr.begin("batch", fill)
	for i := 0; i < r.puts; i++ {
		id, gen := pick(i)
		c.put(i, id, gen)
		if (i+1)%1000 == 0 {
			c.tr.end(batch)
			batch = c.tr.begin("batch", fill)
		}
		if (i+1)%chunk == 0 {
			marks = append(marks, r.read())
			if len(marks)%writeWindows == 0 {
				marks[len(marks)-1].tables = tableBytes(r.dir)
			}
		}
	}
	c.tr.end(batch)
	filled := r.read()
	stop()
	r.tr.end(fill)
	// The drain has no Puts to count chunks by: read the counters every few
	// milliseconds while it runs.
	sp := r.tr.begin("drain", ph)
	drained := make(chan error, 1)
	go func() { drained <- r.db.WaitIdle() }()
	polls := []counters{filled}
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-drained:
			waiting = false
		case <-time.After(drainPoll):
			polls = append(polls, r.read())
		}
	}
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.writeMetrics(marks, polls, r.read(), c.timed)
	return nil
}

func (r *run) writeLoad(c *client) error {
	r.puts = r.n
	return r.writePhase(c, func(i int) (uint64, uint8) { return uint64(i), 0 },
		func(int32) func() { return func() {} })
}

// writeMixed overwrites uniformly chosen keys while a second client runs
// read-suite rounds back to back until the last put is acknowledged.
func (r *run) writeMixed(c *client, reads *readStats) (*client, error) {
	r.puts = r.n
	reader := &client{r: r}
	if r.tr != nil {
		reader.tr = &tracer{base: r.tr.base, clock: r.tr.clock}
	}
	rng := rand.New(rand.NewSource(int64(mix64(r.cfg.seed ^ 0x0dd))))
	var begun time.Time
	pick := func(i int) (uint64, uint8) {
		// Every 64 puts, wait until the schedule catches up.
		if i == 0 {
			begun = time.Now()
		} else if i%64 == 0 {
			due := time.Duration(float64(i) / mixedPutsPerSecond * float64(time.Second))
			if ahead := due - time.Since(begun); ahead > 0 {
				time.Sleep(ahead)
			}
		}
		id := uint64(rng.Intn(r.n))
		r.overwritten[id/64] |= 1 << (id % 64)
		return id, 1
	}
	err := r.writePhase(c, pick, func(parent int32) func() {
		var stop atomic.Bool
		done := make(chan struct{})
		r.live.Store(true)
		go func() {
			defer close(done)
			for round := 0; !stop.Load(); round++ {
				reader.round(round, -1, &stop, false, reads)
			}
		}()
		return func() {
			stop.Store(true)
			<-done
			r.live.Store(false)
			r.tr.merge(reader.tr, parent)
		}
	})
	return reader, err
}

// perChunk returns f(a, b) for every pair of marks step apart.
func perChunk(marks []counters, step int, f func(a, b counters) (float64, bool)) []float64 {
	var out []float64
	for i := 0; i+step < len(marks); i += step {
		if v, ok := f(marks[i], marks[i+step]); ok {
			out = append(out, v)
		}
	}
	return out
}

// writeMetrics derives the write-side metrics. marks are the counters at the
// chunk boundaries of the fill, polls those after its last Put and then
// every few milliseconds of the drain, end those after the drain.
func (r *run) writeMetrics(marks, polls []counters, end counters, timed int64) {
	a, filled := marks[0], polls[0]
	puts := float64(r.puts)
	record := float64(keyLen + r.cfg.w.VLen)
	st, s0 := end.st, a.st
	fill := filled.t.Sub(a.t).Seconds()
	drain := end.t.Sub(filled.t).Seconds()
	stalled := (filled.st.StallTime - s0.StallTime).Seconds()
	r.e2e["put_ops_s"] = puts / (fill + drain)
	window := max(len(marks)/writeWindows, 1)
	r.e2e["put_p50_us"] = favourable(perChunk(marks, window, func(a, b counters) (float64, bool) {
		return median(r.putLat[a.lats:b.lats]) / 1e3, b.lats > a.lats
	}), "lower")
	// The compaction counters move when a compaction ends, so two readings a
	// few milliseconds apart differ by one compaction, or a few. Compactions
	// differ too much in shape for a decile to repeat; the median does.
	all := append(append(append([]counters{}, marks...), polls...), end)
	r.e2e["compact_mib_s"] = median(perChunk(all, 1, func(a, b counters) (float64, bool) {
		wall := (b.st.CompactionWall - a.st.CompactionWall).Seconds()
		return float64(b.st.CompactionInputBytes-a.st.CompactionInputBytes) / mib / wall, wall > 0
	}))
	// Space is read while the store is in use, over the second half of the
	// fill: what is left right after the drain depends on which compaction
	// happened to run last. Every mixed-os put replaces a live key, so all
	// r.n records are live from the start there.
	var space []float64
	for _, m := range marks[len(marks)/2:] {
		if m.tables > 0 {
			live := float64(m.st.Puts - s0.Puts)
			if r.cfg.w.Mixed {
				live = float64(r.n)
			}
			space = append(space, float64(m.tables)/(live*record))
		}
	}
	r.e2e["space_amp"] = mean(space)
	cin := float64(st.CompactionInputBytes - s0.CompactionInputBytes)
	cout := float64(st.CompactionOutputBytes - s0.CompactionOutputBytes)
	flushed := float64(st.FlushBytes - s0.FlushBytes)
	r.e2e["write_amp"] = (flushed + cout) / (puts * record)

	l := r.layer
	l["client.put_p99_us"] = quantile(r.putLat, 0.99) / 1e3
	l["client.put_p999_us"] = quantile(r.putLat, 0.999) / 1e3
	l["client.put_max_ms"] = quantile(r.putLat, 1) / 1e6
	l["client.cpu_us_put"] = float64((end.cpu - a.cpu).Microseconds()) / puts
	l["client.fill_s"] = fill
	l["client.drain_s"] = drain
	if r.tr != nil {
		// The share of the fill spent reading the clock for spans and per-call
		// latencies that an untraced run does not take.
		extra := float64(r.tr.reads+timed) * float64(r.tr.clock)
		l["client.trace_overhead_pct"] = 100 * extra / (fill * 1e9)
	}
	l["lsm.stall_s"] = stalled
	l["lsm.stall_count"] = float64(filled.st.StallCount - s0.StallCount)
	l["lsm.flush_count"] = float64(st.Flushes - s0.Flushes)
	l["lsm.flush_mib"] = flushed / mib
	l["lsm.flush_busy_s"] = (st.FlushWall - s0.FlushWall).Seconds()
	l["lsm.compaction_count"] = float64(st.Compactions - s0.Compactions)
	l["lsm.trivial_moves"] = float64(st.TrivialMoves - s0.TrivialMoves)
	l["lsm.compaction_in_mib"] = cin / mib
	l["lsm.compaction_out_mib"] = cout / mib
	l["lsm.compaction_busy_s"] = (st.CompactionWall - s0.CompactionWall).Seconds()
	l["lsm.max_concurrent_background"] = float64(st.MaxConcurrentBackground)
	l["lsm.governor_grows"] = float64(st.GovernorGrows - s0.GovernorGrows)
	l["lsm.governor_shrinks"] = float64(st.GovernorShrinks - s0.GovernorShrinks)
	l["lsm.governor_denials"] = float64(st.GovernorDenials - s0.GovernorDenials)
	l["lsm.policy_switches"] = float64(st.PolicySwitches - s0.PolicySwitches)
	levels := r.db.Levels()
	tables, depth := 0, 0
	for i, n := range levels {
		tables += n
		if n > 0 {
			depth = i
		}
	}
	l["lsm.l0_tables_end"] = float64(levels[0])
	l["lsm.tables_end"] = float64(tables)
	l["lsm.depth_end"] = float64(depth)
	l["lsm.commit_group_mean"] = ratio(float64(st.GroupedWrites-s0.GroupedWrites), float64(st.WriteGroups-s0.WriteGroups))
	l["lsm.wal_syncs"] = float64(st.WALSyncs - s0.WALSyncs)

	steps := []string{"", "s1_read", "s2_checksum", "s3_decompress", "s4_sort", "s5_compress", "s6_rechecksum", "s7_write"}
	for i := 1; i < len(steps); i++ {
		l["core."+steps[i]+"_s"] = (st.CompactionSteps[i] - s0.CompactionSteps[i]).Seconds()
	}
	l["core.busy_read_s"] = (st.CompactionStageBusy.Read - s0.CompactionStageBusy.Read).Seconds()
	l["core.busy_compute_s"] = (st.CompactionStageBusy.Compute - s0.CompactionStageBusy.Compute).Seconds()
	l["core.busy_write_s"] = (st.CompactionStageBusy.Write - s0.CompactionStageBusy.Write).Seconds()
	l["core.idle_read_s"] = (st.CompactionStageIdle.Read - s0.CompactionStageIdle.Read).Seconds()
	l["core.idle_compute_s"] = (st.CompactionStageIdle.Compute - s0.CompactionStageIdle.Compute).Seconds()
	l["core.idle_write_s"] = (st.CompactionStageIdle.Write - s0.CompactionStageIdle.Write).Seconds()

	l["device.reads"] = float64(end.dev.Reads - a.dev.Reads)
	l["device.writes"] = float64(end.dev.Writes - a.dev.Writes)
	l["device.read_mib"] = float64(end.dev.ReadBytes-a.dev.ReadBytes) / mib
	l["device.write_mib"] = float64(end.dev.WriteBytes-a.dev.WriteBytes) / mib
	l["device.busy_read_s"] = (end.dev.BusyRead - a.dev.BusyRead).Seconds()
	l["device.busy_write_s"] = (end.dev.BusyWrite - a.dev.BusyWrite).Seconds()
	l["device.queue_wait_s"] = (end.dev.QueueWait - a.dev.QueueWait).Seconds()
	l["device.util_pct"] = 100 * (end.dev.Busy() - a.dev.Busy()).Seconds() / (fill + drain)
}

// tableBytes sums the sizes of the table files in dir.
func tableBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var sum int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sst") {
			continue
		}
		if info, err := e.Info(); err == nil {
			sum += info.Size()
		}
	}
	return sum
}

// settle drains background work and then empties level 0, so that reads
// never run on the tree as auto-compaction happened to leave it. Untimed.
func (r *run) settle() error {
	ph := r.tr.begin("settle", r.root)
	defer r.tr.end(ph)
	t0 := time.Now()
	if err := r.db.WaitIdle(); err != nil {
		return err
	}
	for i := 0; r.db.Levels()[0] > 0 && i < 64; i++ {
		if err := r.db.Compact(0); err != nil {
			return err
		}
		if err := r.db.WaitIdle(); err != nil {
			return err
		}
	}
	r.layer["client.settle_s"] = time.Since(t0).Seconds()
	return nil
}

// readStats pools, per kind of read, the rate of every timed slice of every
// round, and sums the store's counters over the sub-phases.
type readStats struct {
	hot, cold, seek       []float64                 // operations per second, one per slice
	scan                  [longScanPlaces][]float64 // keys per second, one per slice, by starting place
	hotLookups, hotHits   int64
	coldGets, coldLookups int64
	coldHits, coldSkips   int64
}

// report turns the pooled slices into the read-side metrics.
func (rs *readStats) report(r *run) {
	r.e2e["get_hot_ops_s"] = favourable(rs.hot, "higher")
	r.e2e["get_cold_ops_s"] = favourable(rs.cold, "higher")
	r.e2e["seek_ops_s"] = favourable(rs.seek, "higher")
	// Equal key counts at each place: the overall rate is the harmonic mean.
	var perKey, places float64
	for _, slices := range rs.scan {
		if len(slices) > 0 {
			perKey += 1 / favourable(slices, "higher")
			places++
		}
	}
	r.e2e["scan_keys_s"] = ratio(places, perKey)
	r.e2e["read_blocks_op"] = ratio(float64(rs.coldLookups), float64(rs.coldGets))
	r.layer["cache.hit_rate_hot"] = 100 * ratio(float64(rs.hotHits), float64(rs.hotLookups))
	r.layer["cache.hit_rate_cold"] = 100 * ratio(float64(rs.coldHits), float64(rs.coldLookups))
	r.layer["lsm.filter_skips_per_get"] = ratio(float64(rs.coldSkips), float64(rs.coldGets))
	st := r.db.Stats()
	r.layer["cache.evictions"] = float64(st.BlockCacheEvictions)
	r.layer["cache.prewarmed"] = float64(st.BlockCachePrewarmed)
}

// readSuite runs the read rounds on the settled tree, repeating the set-up
// between them so that its timings are spread over the run.
func (r *run) readSuite(c *client, rs *readStats) error {
	for round := 0; round < readRounds; round++ {
		ph := r.tr.begin("read", r.root)
		c.round(round, ph, nil, true, rs)
		r.tr.end(ph)
		if round < readRounds-1 {
			if err := r.setupAgain(); err != nil {
				return err
			}
		}
	}
	return nil
}

// round runs the four sub-phases once. With gc set it collects garbage
// before each, so that no sub-phase pays for its predecessor's.
func (c *client) round(round int, parent int32, stop *atomic.Bool, gc bool, rs *readStats) {
	sp := c.tr.begin(fmt.Sprintf("round%d", round), parent)
	defer c.tr.end(sp)
	prep := func() pcplsm.Stats {
		if gc {
			runtime.GC()
		}
		return c.r.db.Stats()
	}
	lookups := func(a, b pcplsm.Stats) (hits, all int64) {
		hits = b.BlockCacheHits - a.BlockCacheHits
		return hits, hits + b.BlockCacheMisses - a.BlockCacheMisses
	}
	// One untimed pass puts the hot set's blocks back into the cache after
	// the previous round's cold reads and scans pushed them out.
	var unrecorded []float64
	for _, id := range c.r.plan.hot {
		c.get(uint64(id), &unrecorded)
	}
	s0 := prep()
	rs.hot = append(rs.hot, c.timedSlices("hot", sp, hotSlice, stop, c.getHot)...)
	s1 := c.r.db.Stats()
	hits, all := lookups(s0, s1)
	rs.hotHits += hits
	rs.hotLookups += all

	s0 = prep()
	rs.cold = append(rs.cold, c.timedSlices("cold", sp, coldSlice, stop, c.getCold)...)
	s1 = c.r.db.Stats()
	hits, all = lookups(s0, s1)
	rs.coldHits += hits
	rs.coldLookups += all
	rs.coldGets += s1.Gets - s0.Gets
	rs.coldSkips += s1.FilterSkips - s0.FilterSkips

	prep()
	// A short scan counts as one operation, a long one by the keys it visits.
	for _, rate := range c.timedSlices("seek", sp, 1, stop, c.shortScan) {
		rs.seek = append(rs.seek, rate/(shortScan+1))
	}
	prep()
	// A long scan is timed every scanSlice keys it steps over, opening the
	// iterator left out: the short scans measure that.
	c.timedSlices("scan", sp, 1, stop, func() {
		place := c.longPos % longScanPlaces
		c.longPos++
		c.scanRates = &rs.scan[place]
		c.scanFrom(int(c.r.plan.long[place]), c.r.scanLen)
		c.scanRates = nil
	})
}

// timedSlices repeats call for the sub-phase length (or until stop), timing
// every slice of perSlice operations, and returns each slice's rate in API
// calls per second: Gets for the point reads, keys visited for the scans.
func (c *client) timedSlices(name string, parent int32, perSlice int, stop *atomic.Bool, call func()) []float64 {
	if stop != nil && stop.Load() {
		return nil
	}
	sp := c.tr.begin(name, parent)
	var rates []float64
	var ops int64
	batch := c.tr.begin("batch", sp)
	start := time.Now()
	for at := start; ; {
		calls0 := c.calls
		for i := 0; i < perSlice; i++ {
			call()
			ops++
			if ops%1000 == 0 {
				c.tr.end(batch)
				batch = c.tr.begin("batch", sp)
			}
		}
		now := time.Now()
		rates = append(rates, float64(c.calls-calls0)/now.Sub(at).Seconds())
		at = now
		if now.Sub(start) >= c.r.subDur || (stop != nil && stop.Load()) {
			break
		}
	}
	c.tr.end(batch)
	c.tr.end(sp)
	return rates
}

func (c *client) getHot() {
	hot := c.r.plan.hot
	c.get(uint64(hot[c.hotPos%len(hot)]), &c.hotLat)
	c.hotPos++
}

func (c *client) getCold() {
	cold := c.r.plan.cold
	e := cold[c.coldPos%len(cold)]
	c.coldPos++
	if e >= 0 {
		c.get(uint64(e), &c.coldLat)
		return
	}
	off := int(-e-1) * keyLen
	_, err := c.r.db.Get(c.r.plan.absent[off : off+keyLen])
	c.ops++
	c.calls++
	switch {
	case err == nil:
		c.fails.FoundAbsent++
	case !pcplsm.IsNotFound(err):
		c.fails.Errors++
	}
}

// get reads a loaded key and checks the value; traced runs time every call.
func (c *client) get(id uint64, lat *[]float64) {
	var t0 time.Time
	if c.tr != nil {
		t0 = time.Now()
	}
	v, err := c.r.db.Get(c.r.ks.key(id))
	if c.tr != nil {
		*lat = append(*lat, float64(time.Since(t0)))
		c.timed += 2
	}
	c.ops++
	c.calls++
	switch {
	case err == nil:
		if !c.valueOK(id, v) {
			c.fails.WrongValue++
		}
	case pcplsm.IsNotFound(err):
		c.fails.Missing++
	default:
		c.fails.Errors++
	}
}

func (c *client) valueOK(id uint64, v []byte) bool {
	ks := c.r.ks
	if c.r.live.Load() {
		return ks.matches(v, id, 0, &c.scratch) || ks.matches(v, id, 1, &c.scratch)
	}
	return ks.matches(v, id, c.r.gen(id), &c.scratch)
}

func (c *client) shortScan() {
	starts := c.r.plan.starts
	c.scanFrom(int(starts[c.startPos%len(starts)]), shortScan)
	c.startPos++
}

// scanFrom opens an iterator, seeks to the loaded key of the given rank and
// steps n times, checking every key against the sorted key list and every
// value against its id: a skipped, repeated, misplaced or missing entry is a
// bad scan.
func (c *client) scanFrom(rank, n int) {
	ks := c.r.ks
	c.ops++
	it, err := c.r.db.NewIterator()
	if err != nil {
		c.fails.Errors++
		return
	}
	ok := it.Seek(ks.key(ks.id(ks.sorted[rank])))
	c.calls++
	at := time.Now()
	for j := 0; ; j++ {
		if c.scanRates != nil && j > 0 && j%c.r.scanSlice == 0 {
			now := time.Now()
			*c.scanRates = append(*c.scanRates, float64(c.r.scanSlice)/now.Sub(at).Seconds())
			at = now
		}
		if !ok {
			c.fails.BadScan++
			break
		}
		num, valid := parseKey(it.Key())
		if !valid || num != ks.sorted[rank+j] {
			c.fails.BadScan++
			break
		}
		if !c.valueOK(ks.id(num), it.Value()) {
			c.fails.WrongValue++
		}
		if j == n {
			break
		}
		ok = it.Next()
		c.calls++
	}
	if it.Err() != nil {
		c.fails.Errors++
	}
	if err := it.Close(); err != nil {
		c.fails.Errors++
	}
}

// reopenVerify closes the store, opens it again and checks a sample of the
// loaded keys: point reads for up to a second, the rest in one scan.
func (r *run) reopenVerify(c *client) error {
	ph := r.tr.begin("reopen", r.root)
	defer r.tr.end(ph)
	if err := r.db.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	db, err := r.open(r.dir)
	if err != nil {
		return err
	}
	r.db = db
	r.layer["client.reopen_s"] = time.Since(t0).Seconds()

	probe := &client{r: r}
	sample := min(reopenSample, r.n/2)
	rng := rand.New(rand.NewSource(int64(mix64(r.cfg.seed ^ 0x4e0))))
	start := time.Now()
	done := 0
	for ; done < sample && time.Since(start) < time.Second; done++ {
		probe.get(uint64(rng.Intn(r.n)), nil)
	}
	if rest := sample - done; rest > 1 {
		probe.scanFrom(rng.Intn(r.n-rest), rest-1)
		probe.ops += int64(rest - 1)
	}
	// Whatever a probe found after the reopen is a post-reopen mismatch.
	c.fails.Reopen += probe.fails.total()
	c.ops += probe.ops
	return r.db.Close()
}

// latencies reports the per-call latency percentiles a traced run of a
// file-backed workload took. Simulated devices bank sleep overshoot, so a
// single call's latency there says little; those workloads report 0.
func (r *run) latencies(c *client) {
	l := r.layer
	for _, name := range []string{"client.get_hot_p50_us", "client.get_cold_p50_us", "client.get_cold_p99_us"} {
		l[name] = 0
	}
	if r.tr == nil || r.cfg.w.Device != "" {
		return
	}
	l["client.get_hot_p50_us"] = median(c.hotLat) / 1e3
	l["client.get_cold_p50_us"] = median(c.coldLat) / 1e3
	l["client.get_cold_p99_us"] = quantile(c.coldLat, 0.99) / 1e3
}
