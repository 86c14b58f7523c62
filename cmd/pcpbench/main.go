// Command pcpbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	pcpbench -fig 5            # one figure: 5, 8, 9, 10, 11, 11b, 12, 12s, 12c, model, codec
//	pcpbench -fig all          # everything
//	pcpbench -scale quick      # quick (default) or full
//	pcpbench -timescale 0.5    # speed up the simulated devices
//
// Output is the same rows/series the paper plots, as aligned text tables.
// Store performance (put, get, scan and compaction rates of the whole
// engine) is measured by the benchmark in bench/, run as `bash bench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"

	"pcplsm/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 8, 9, 10, 11, 11b, 12, 12s, 12c, model, codec, all")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	timeScale := flag.Float64("timescale", -1, "override simulated-device time scale (1.0 = faithful)")
	flag.Parse()

	var sc harness.Scale
	switch *scaleName {
	case "quick":
		sc = harness.Quick()
	case "full":
		sc = harness.Full()
	default:
		fmt.Fprintf(os.Stderr, "pcpbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *timeScale >= 0 {
		sc.TimeScale = *timeScale
	}

	type figure struct {
		name string
		run  func(harness.Scale) (*harness.Table, error)
	}
	figures := map[string][]figure{
		"5":     {{"5", harness.Fig5}},
		"8":     {{"8", harness.Fig8}},
		"9":     {{"9", harness.Fig9}},
		"10":    {{"10", harness.Fig10}},
		"11":    {{"11a", harness.Fig11}, {"11b", harness.Fig11b}},
		"11b":   {{"11b", harness.Fig11b}},
		"12":    {{"12a-c", harness.Fig12SPPCP}, {"12d-f", harness.Fig12CPPCP}},
		"12s":   {{"12a-c", harness.Fig12SPPCP}},
		"12c":   {{"12d-f", harness.Fig12CPPCP}},
		"model": {{"model", harness.FigModel}},
		"codec": {{"codec", harness.FigCodec}},
	}
	var runs []figure
	if *fig == "all" {
		for _, key := range []string{"5", "8", "9", "10", "11", "12", "model", "codec"} {
			runs = append(runs, figures[key]...)
		}
	} else {
		fs, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "pcpbench: unknown figure %q\n", *fig)
			os.Exit(2)
		}
		runs = fs
	}

	for _, f := range runs {
		fmt.Printf("running figure %s (scale %s, timescale %.2f)...\n", f.name, sc.Name, sc.TimeScale)
		tb, err := f.run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcpbench: figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		tb.Print(os.Stdout)
	}
}
