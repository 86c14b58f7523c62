// Command bench is the repository's benchmark spine: four workloads that
// drive the public pcplsm API for thirteen end-to-end metrics and, in a
// separate traced run, time each internal layer for the per-layer table.
// README.md in this directory says what each number means and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: load-ssd, load-hdd, kv-os, mixed-os or all")
		seed      = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", nominalSeconds, "run length the record counts and read sub-phases are scaled to")
		trace     = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; a path: traced, and the spans are written there")
		dir       = flag.String("dir", filepath.Join(".bench_build", "work"), "directory the stores are created under")
		out       = flag.String("out", "", "append each run's full result to this file, one JSON object per line")
		runs      = flag.Int("runs", 1, "runs per workload, each with the next seed")
		compare   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of every workload and check they agree within the bounds")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		err = printManifest()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare a.json b.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1), false)
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *runs, *dir)
	case *name == "all" || *runs > 1:
		err = runMany(*name, *seed, *seconds, *runs, *trace, *dir, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *dir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want load-ssd, load-hdd, kv-os, mixed-os or all)", name)
}

// runOne runs one workload in this process and prints every metric by name,
// the contract's one-line JSON last.
func runOne(name string, seed uint64, seconds float64, trace, dir, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	cfg := config{w: w, seed: seed, seconds: seconds, dir: abs, corruptID: -1}
	switch trace {
	case "0", "", "false":
	case "1", "true":
		cfg.traced = true
	default:
		cfg.traced, cfg.traceFile = true, trace
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	printResult(res)
	return nil
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(res)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res *result) {
	h := res.Host
	fmt.Printf("# workload=%s seed=%d seconds=%g traced=%v wall_s=%.1f\n", res.Workload, res.Seed, res.Seconds, res.Traced, res.WallS)
	fmt.Printf("# host: nproc=%d gomaxprocs=%d go=%s kernel=%s cpu=%q device=%s time_scale=%g cpu_dilation=%s dir_fs=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CPUModel, h.Device, h.TimeScale, h.CPUDilation, h.DirFS)
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		// End-to-end metrics come from untraced runs only; a traced run shows
		// them for orientation and reports the per-layer table.
		for _, d := range endToEnd {
			fmt.Printf("# (traced) %-28s %16.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
		}
		defs, values = perLayer, res.PerLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("%-30s %16.4f %-9s %s is better", d.Name, values[d.Name], d.Unit, d.Better)
		if d.Moves != "" {
			line += "; moves " + d.Moves
		}
		fmt.Println(line)
	}
	f := res.Failures
	fmt.Printf("# ops_attempted=%d ops_failed=%d (wrong_value=%d missing_present_key=%d found_absent_key=%d bad_scan=%d post_reopen_mismatch=%d errors=%d)\n",
		res.Attempted, res.Failed, f.WrongValue, f.Missing, f.FoundAbsent, f.BadScan, f.Reopen, f.Errors)
	last, _ := json.Marshal(contractLine(res)) // numbers and strings always marshal
	fmt.Println(string(last))
}

// contractLine is the object a run prints last: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func contractLine(res *result) map[string]any {
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		defs, values = perLayer, res.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return map[string]any{"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// child runs one workload in a process of its own, as every measured run
// must be, and returns what it printed.
func child(w string, seed uint64, seconds float64, trace, dir, out string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-dir", dir, "-out", out)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// runMany runs the named workload (or all four) `runs` times, one process
// per run, seeds counting up from seed.
func runMany(name string, seed uint64, seconds float64, runs int, trace, dir, out string) error {
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, err := findWorkload(name); err != nil {
		return err
	}
	for i := 0; i < runs; i++ {
		for _, w := range names {
			b, err := child(w, seed+uint64(i), seconds, trace, dir, out)
			os.Stdout.Write(b)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed+uint64(i), err)
			}
		}
	}
	return nil
}

// printManifest prints BENCHMARK.json from the tables in this package, so
// the file and the program cannot name different metrics.
func printManifest() error {
	type entry map[string]any
	m := map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": nominalSeconds,
	}
	var ws, e2e, layers []entry
	for _, w := range workloads {
		ws = append(ws, entry{"name": w.Name, "why": w.Why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, entry{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	m["workloads"], m["end_to_end"], m["per_layer"] = ws, e2e, layers
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
