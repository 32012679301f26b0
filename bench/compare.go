package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// side is one side of a comparison: one results file, or several repeat runs
// of the same code whose median is judged and whose spread is known.
type side []results

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, r)
	}
	return s, nil
}

// values lists a metric's reading on a workload in every run that has one.
func (s side) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s {
		if w := r.Workloads[workload]; w != nil {
			if v, ok := w.Metrics[metric]; ok && !math.IsNaN(v.Value) {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spread is how far a side's repeat runs disagree, as a share of their
// median: the interquartile distance with four or more runs, the range with
// two or three. One run says nothing about spread.
func spread(v []float64) float64 {
	switch {
	case len(v) >= 4:
		q1, q2, q3 := quartiles(v)
		return (q3 - q1) / math.Abs(q2)
	case len(v) >= 2:
		s := sorted(v)
		return (s[len(s)-1] - s[0]) / math.Abs(median(v))
	}
	return 0
}

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge applies a metric's direction and bound to the two sides' readings.
// A difference within the bound is unchanged, beyond it improved or
// regressed; where either side's own runs disagree by more than the bound the
// row is unresolved, unless every run of one side beats every run of the other.
func judge(m metricSpec, a, b []float64) (ratio float64, verdict string) {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN(), unresolved
	}
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worse := mb - ma // positive = b is worse, for a lower-is-better metric
	if m.Better == "higher" {
		worse = -worse
	}
	change := worse / math.Abs(ma)
	noisy := math.Max(spread(a), spread(b)) > m.Bound
	sa, sb := sorted(a), sorted(b)
	separated := sb[0] > sa[len(sa)-1] || sb[len(sb)-1] < sa[0]
	switch {
	case noisy && !separated:
		return ratio, unresolved
	case change > m.Bound:
		return ratio, regressed
	case change < -m.Bound:
		return ratio, improved
	}
	return ratio, unchanged
}

// compareFiles prints one row per (end-to-end metric, workload) and fails on
// any regression. It is both the A/A tool and the gate later changes are
// judged with.
func compareFiles(out io.Writer, bf *benchmarkFile, aList, bList string) error {
	a, err := loadSide(aList)
	if err != nil {
		return err
	}
	b, err := loadSide(bList)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-16s %-22s %-6s %14s %14s %9s %6s  %s\n",
		"workload", "metric", "unit", "a (base)", "b", "b/a", "bound", "verdict")
	regressions := 0
	for _, w := range bf.Workloads {
		// A window the hypervisor took CPU from says nothing about the code:
		// a time that moved beyond its bound there is unresolved, not a verdict.
		stolen := a.stolen(w.Name) || b.stolen(w.Name)
		for _, m := range bf.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			ratio, verdict := judge(m, va, vb)
			if stolen && timed[m.Unit] && (verdict == regressed || verdict == improved) {
				verdict = unresolved
			}
			if verdict == regressed {
				regressions++
			}
			fmt.Fprintf(out, "%-16s %-22s %-6s %14.4f %14.4f %9.4f %6.3f  %s\n",
				w.Name, m.Name, m.Unit, median(va), median(vb), ratio, m.Bound, verdict)
		}
		fa, fb := a.failed(w.Name), b.failed(w.Name)
		verdict := unchanged
		if fb > fa {
			verdict = regressed
			regressions++
		}
		fmt.Fprintf(out, "%-16s %-22s %-6s %14.0f %14.0f %9s %6.3f  %s\n",
			w.Name, "failed", "count", fa, fb, "-", 0.0, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressed rows", regressions)
	}
	return nil
}

// timed are the units of metrics that move with the machine's speed.
var timed = map[string]bool{"s": true, "ms": true, "us": true, "1/s": true}

// maxSteal is the share of machine CPU time lost to the hypervisor above
// which a run's times are not trusted.
const maxSteal = 0.02

func (s side) stolen(workload string) bool {
	for _, r := range s {
		if w := r.Workloads[workload]; w != nil && w.Observed["machine_cpu_steal_share"] > maxSteal {
			return true
		}
	}
	return false
}

// failed is the most operations any run of the side failed on a workload;
// it may not rise at all.
func (s side) failed(workload string) float64 {
	max := 0
	for _, r := range s {
		if w := r.Workloads[workload]; w != nil && w.Failed > max {
			max = w.Failed
		}
	}
	return float64(max)
}
