package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeSeconds runs every workload at 1/100 of its size.
const smokeSeconds = nominalSeconds / 100.0

func smokeConfig(t *testing.T, w workloadDef) config {
	return config{w: w, seed: 7, seconds: smokeSeconds, traced: true, dir: t.TempDir(), corruptID: -1,
		traceFile: filepath.Join(t.TempDir(), "spans.json")}
}

// TestSmoke runs every workload traced at 1/100 size and checks that every
// declared metric is reported, finite and unit-tagged, that no operation
// failed, and that the span file's phases tile the run.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		cfg := smokeConfig(t, w)
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %+v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			v, ok := res.EndToEnd[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || d.Unit == "" {
				t.Errorf("%s: end-to-end metric %s missing, not finite or without unit (%v)", w.Name, d.Name, v)
			}
		}
		metrics := contractLine(res)["metrics"].(map[string]metricValue)
		if len(metrics) != len(perLayer) {
			t.Errorf("%s: traced run printed %d metrics, want %d", w.Name, len(metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
				t.Errorf("%s: per-layer metric %s missing, not finite or without unit (%v)", w.Name, d.Name, m)
			}
		}
		checkSpans(t, w.Name, cfg.traceFile)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke run took %v, want under 10s", d)
	}
}

// checkSpans reads the span file back: the phase spans (children of the run
// span) must add up to the run span within 1%.
func checkSpans(t *testing.T, name, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tf.Spans) == 0 || tf.Spans[0].Name != "run" || tf.Spans[0].Parent != -1 {
		t.Fatalf("%s: span file does not start with the run span", name)
	}
	run := tf.Spans[0].End - tf.Spans[0].Start
	var phases int64
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			phases += s.End - s.Start
		}
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", name, s.Name)
		}
	}
	if gap := math.Abs(float64(run-phases)) / float64(run); gap > 0.01 {
		t.Errorf("%s: phase spans cover %d ns of a %d ns run (off by %.2f%%)", name, phases, run, 100*gap)
	}
}

// TestProbeFires gives the run a deliberately wrong expectation for one hot
// key and checks that the run reports failed operations for it.
func TestProbeFires(t *testing.T) {
	cfg := smokeConfig(t, workloads[2])
	cfg.traced, cfg.traceFile = false, ""
	r := newRun(cfg)
	plan := newReadPlan(newKeyspace(cfg.seed, r.n, cfg.w.VLen), r.scanLen)
	cfg.corruptID = int64(plan.hot[0])
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.WrongValue == 0 || res.Failed == 0 {
		t.Errorf("a wrong expectation for id %d went unnoticed: %+v", cfg.corruptID, res.Failures)
	}
	if contractLine(res)["correct"] != false {
		t.Error("run with failed operations reported correct")
	}
}

// TestKeyspace checks the model the probes rest on: ids map to distinct
// keys, the mapping inverts, and keys parse back to their numbers.
func TestKeyspace(t *testing.T) {
	ks := newKeyspace(3, 5000, 100)
	seen := map[uint64]bool{}
	for id := uint64(0); id < uint64(ks.n); id++ {
		num := ks.num(id)
		if seen[num] || ks.id(num) != id {
			t.Fatalf("id %d: key number %d repeats or does not invert", id, num)
		}
		seen[num] = true
		if got, ok := parseKey(ks.key(id)); !ok || got != num {
			t.Fatalf("id %d: key %q parses to %d, want %d", id, ks.key(id), got, num)
		}
	}
	if num := ks.num(uint64(ks.n)); seen[num] {
		t.Error("an absent id shares a loaded id's key")
	}
	var a, b []byte
	a, b = ks.value(a, 1, 0), ks.value(b, 1, 1)
	if string(a) == string(b) || !ks.matches(a, 1, 0, &b) {
		t.Error("generations of one value do not differ, or a value does not match itself")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
