package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads a result file (one JSON object per line, as -out writes
// them) and groups the untraced runs by workload.
func loadResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	return byWorkload, sc.Err()
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns, the
// rule the acceptance check uses; it sorts v.
func quartiles(v []float64) (q1, q2, q3 float64) {
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// side summarises one file's runs of one metric on one workload.
type side struct {
	values      []float64
	q1, med, q3 float64
}

func summarize(runs []result, metric string) side {
	s := side{}
	for _, r := range runs {
		s.values = append(s.values, r.EndToEnd[metric])
	}
	s.q1, s.med, s.q3 = quartiles(s.values)
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b side, lowerIsBetter bool) bool {
	if len(a.values) == 0 || len(b.values) == 0 {
		return false
	}
	// quartiles sorted both value lists.
	if lowerIsBetter {
		return b.values[len(b.values)-1] < a.values[0]
	}
	return b.values[0] > a.values[len(a.values)-1]
}

// verdict follows the choosing-metrics rule: worse past the bound is a
// regression; where the runs spread wider than the bound the metric is
// unresolved unless every run of one side beats every run of the other.
func verdict(a, b side, d metricDef) (worse float64, v string) {
	lower := d.Better == "lower"
	worse = ratio(b.med-a.med, a.med)
	if !lower {
		worse = -worse
	}
	switch {
	case max(a.spread(), b.spread()) > d.Bound:
		switch {
		case allBetter(a, b, lower):
			v = "better"
		case allBetter(b, a, lower) && worse > d.Bound:
			v = "worse"
		default:
			v = "unresolved"
		}
	case worse > d.Bound:
		v = "worse"
	case -worse > a.spread() && -worse > 0:
		v = "better"
	default:
		v = "same"
	}
	return worse, v
}

func failedShare(runs []result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles prints, per workload and metric, both sides' quartiles, the
// relative change, the bound and a verdict. It fails on any "worse" and on a
// higher share of failed operations. With symmetric set (the self-check) a
// change in either direction past the bound fails, and one past half the
// bound is listed as at risk.
func compareFiles(pathA, pathB string, symmetric bool) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	var bad, atRisk []string
	fmt.Printf("%-9s %-15s %38s %38s %8s %6s  %s\n", "workload", "metric", "a: q1 / median / q3", "b: q1 / median / q3", "change", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := summarize(ra, d.Name), summarize(rb, d.Name)
			worse, v := verdict(sa, sb, d)
			if symmetric {
				// Both sides are the same code: only the distance matters.
				worse = max(worse, -worse)
				v = "same"
				switch {
				case worse > d.Bound:
					v = "worse"
				case worse > d.Bound/2:
					v = "at-risk"
					atRisk = append(atRisk, w.Name+"/"+d.Name)
				}
			}
			if v == "worse" {
				bad = append(bad, w.Name+"/"+d.Name)
			}
			fmt.Printf("%-9s %-15s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, sa.q1, sa.med, sa.q3, sb.q1, sb.med, sb.q3, 100*worse, 100*d.Bound, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		fmt.Printf("%-9s %-15s a: %d runs, failed share %.2g   b: %d runs, failed share %.2g\n", w.Name, "failed_ops", len(ra), fa, len(rb), fb)
		if fb > fa {
			bad = append(bad, w.Name+"/failed_ops")
		}
	}
	fmt.Printf("change is how much worse b's median is than a's, as a share of a's; spread wider than the bound gives unresolved\n")
	if symmetric {
		fmt.Printf("at risk (sets differ by more than half the bound): %v\n", atRisk)
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse: %v", bad)
	}
	return nil
}

// selfCheck runs two interleaved sets of every workload on this build and
// compares them with each other.
func selfCheck(seed uint64, seconds float64, runs int, dir string) error {
	if runs < 2 {
		runs = 5
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The two result files stay in dir, for -compare and for the record.
	files := [2]string{filepath.Join(dir, "selfcheck-a.json"), filepath.Join(dir, "selfcheck-b.json")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for set, out := range files {
				s := seed + uint64(2*i+set)
				if _, err := child(w.Name, s, seconds, "0", dir, out); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s set %c done\n", i+1, runs, w.Name, 'a'+set)
			}
		}
	}
	return compareFiles(files[0], files[1], true)
}
