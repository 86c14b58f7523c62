// Command pcpdb is a command-line client for the pcplsm store.
//
// Usage:
//
//	pcpdb -dir /tmp/db put <key> <value>
//	pcpdb -dir /tmp/db get <key>
//	pcpdb -dir /tmp/db del <key>
//	pcpdb -dir /tmp/db scan [prefix]
//	pcpdb -dir /tmp/db -n 100000 -vsize 100 -dist uniform load
//	pcpdb -dir /tmp/db stats   (summary, then one "name value" line per metric)
//	pcpdb -dir /tmp/db compact
//	pcpdb -dir /tmp/db scrub   (alias: verify)
//
// All flags come before the command (standard Go flag parsing). The
// -mode/-compute/-io flags select the compaction procedure; -sim runs on a
// simulated device instead of the real file system.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pcplsm"
	"pcplsm/internal/workload"
)

func main() {
	var (
		dir     = flag.String("dir", "", "data directory (empty = in-memory, useful only for load benchmarks)")
		mode    = flag.String("mode", "pcp", "compaction mode: scp or pcp")
		compute = flag.Int("compute", 0, "compute-stage workers (C-PPCP when > 1)")
		ioPar   = flag.Int("io", 0, "I/O-stage workers (S-PPCP when > 1)")
		subtask = flag.Int("subtask", 0, "sub-task size in bytes (0 = 512KiB default)")
		codec   = flag.String("codec", "snappy", "block compression: snappy, flate, none")
		sim     = flag.String("sim", "", "simulate a device: hdd, ssd, nvme (empty = real storage)")
		disks   = flag.Int("disks", 1, "simulated disk count")
		raid0   = flag.Bool("raid0", false, "stripe simulated disks as RAID0")
		tscale  = flag.Float64("timescale", 1.0, "simulated device time scale")
		n       = flag.Int("n", 100000, "load: number of entries")
		vsize   = flag.Int("vsize", 100, "load: value size in bytes")
		dist    = flag.String("dist", "uniform", "load: key distribution (uniform, sequential, zipfian)")
		verbose = flag.Bool("v", false, "log flushes and compactions")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pcpdb: missing command (put|get|del|scan|load|stats|compact|scrub)")
		os.Exit(2)
	}

	opts := pcplsm.Options{
		Dir:         *dir,
		Compression: *codec,
		Compaction: pcplsm.Compaction{
			Mode:           *mode,
			SubtaskBytes:   *subtask,
			ComputeWorkers: *compute,
			IOWorkers:      *ioPar,
		},
	}
	if *sim != "" {
		opts.Simulate = &pcplsm.SimulatedStorage{
			Device: *sim, Disks: *disks, RAID0: *raid0, TimeScale: *tscale,
		}
	}
	if *verbose {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	db, err := pcplsm.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	switch args[0] {
	case "put":
		need(args, 3, "put <key> <value>")
		if err := db.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fatal(err)
		}
	case "get":
		need(args, 2, "get <key>")
		v, err := db.Get([]byte(args[1]))
		if pcplsm.IsNotFound(err) {
			fmt.Fprintln(os.Stderr, "(not found)")
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", v)
	case "del":
		need(args, 2, "del <key>")
		if err := db.Delete([]byte(args[1])); err != nil {
			fatal(err)
		}
	case "scan":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		it, err := db.NewIterator()
		if err != nil {
			fatal(err)
		}
		defer it.Close()
		count := 0
		for ok := it.Seek([]byte(prefix)); ok; ok = it.Next() {
			k := string(it.Key())
			if prefix != "" && (len(k) < len(prefix) || k[:len(prefix)] != prefix) {
				break
			}
			fmt.Printf("%s\t%s\n", k, it.Value())
			count++
		}
		if err := it.Err(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "(%d entries)\n", count)
	case "load":
		d, err := workload.ParseDistribution(*dist)
		if err != nil {
			fatal(err)
		}
		gen := workload.New(workload.Config{
			Entries: *n, ValueSize: *vsize, Dist: d, Seed: 1,
		})
		start := time.Now()
		for {
			k, v, ok := gen.Next()
			if !ok {
				break
			}
			if err := db.Put(k, v); err != nil {
				fatal(err)
			}
		}
		insertTime := time.Since(start)
		if err := db.WaitIdle(); err != nil {
			fatal(err)
		}
		total := time.Since(start)
		st := db.Stats()
		fmt.Printf("loaded %d entries in %v (%.0f inserts/s; %v incl. background)\n",
			*n, insertTime.Round(time.Millisecond),
			float64(*n)/insertTime.Seconds(), total.Round(time.Millisecond))
		fmt.Printf("flushes=%d compactions=%d compaction-bandwidth=%.1f MiB/s\n",
			st.Flushes, st.Compactions, st.CompactionBandwidth()/(1<<20))
		fmt.Printf("compaction breakdown: %v\n", st.CompactionSteps.Breakdown())
		fmt.Printf("levels: %v\n", db.Levels())
	case "stats":
		st := db.Stats()
		fmt.Println(st.String())
		m := db.Metrics()
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%s %d\n", name, m[name])
		}
		fmt.Printf("levels: %v\n", db.Levels())
		for i, ds := range db.DeviceStats() {
			fmt.Printf("device %d: reads=%d (%.1f MiB) writes=%d (%.1f MiB) busy=%v\n",
				i, ds.Reads, float64(ds.ReadBytes)/(1<<20),
				ds.Writes, float64(ds.WriteBytes)/(1<<20), ds.Busy())
		}
	case "scrub", "verify":
		rep, err := db.Scrub()
		if err != nil {
			fatal(err)
		}
		for _, tr := range rep.Tables {
			switch {
			case tr.Skipped:
				fmt.Printf("L%d %06d.sst  SKIP  %s\n", tr.Level, tr.Num, tr.Err)
			case tr.OK:
				fmt.Printf("L%d %06d.sst  OK    %d entries, %d bytes\n",
					tr.Level, tr.Num, tr.Entries, tr.BytesVerified)
			case tr.Quarantined:
				fmt.Printf("L%d %06d.sst  CORRUPT (quarantined)  %s\n", tr.Level, tr.Num, tr.Err)
			default:
				fmt.Printf("L%d %06d.sst  ERROR  %s\n", tr.Level, tr.Num, tr.Err)
			}
		}
		fmt.Printf("scrubbed %d tables (%.1f MiB): %d corrupt, %d skipped\n",
			rep.Verified, float64(rep.Bytes)/(1<<20), rep.Corruptions, rep.Skipped)
		if rep.Corruptions > 0 || rep.Skipped > 0 {
			os.Exit(1)
		}
	case "compact":
		levels := db.Levels()
		for l := 0; l < len(levels)-1; l++ {
			if levels[l] > 0 {
				if err := db.Compact(l); err != nil {
					fatal(err)
				}
			}
		}
		fmt.Printf("levels after compaction: %v\n", db.Levels())
	default:
		fmt.Fprintf(os.Stderr, "pcpdb: unknown command %q\n", args[0])
		os.Exit(2)
	}
}

func need(args []string, n int, usage string) {
	if len(args) < n {
		fmt.Fprintf(os.Stderr, "pcpdb: usage: %s\n", usage)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pcpdb: %v\n", err)
	os.Exit(1)
}
