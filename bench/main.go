// Command bench is the repository's benchmark. It builds the real binaries,
// trains and starts the tiers as subprocesses, drives four seeded closed-loop
// workloads, checks every answer against a reference evaluator, and reports
// end-to-end metrics; a separate traced pass reports per-layer metrics.
//
//	go run ./bench -seed 1                      every workload, both passes
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	go run ./bench -compare a.json b.json       judge b against a
//
// See README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

const benchmarkJSON = "BENCHMARK.json"

// pinnedEnv names the one CPU a measuring bench process, and with it every
// tier it starts, is restricted to. On a few cores of a shared host, how fast
// two threads run side by side changes from minute to minute (by a factor of
// two on the sandbox this was written on) while one thread's speed holds
// still; a closed loop of one caller never needs two at once, so the whole
// fleet is measured on one CPU and what is read is the work a call costs, not
// where the scheduler happened to put it.
const pinnedEnv = "PMLMPI_BENCH_CPU"

// results is bench/out/results.json: everything one full run measured.
type results struct {
	Schema    int                        `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	GoVersion string                     `json:"go_version"`
	CPUs      int                        `json:"cpus"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	e2eReport
	Ladder *ladderReport `json:"ladder,omitempty"`
}

// options are the command's flags.
type options struct {
	seed    int64
	name    string
	seconds float64
	trace   int
	outDir  string
	compare bool
	smoke   bool
	args    []string
}

func main() {
	var opt options
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: equal seeds give byte-identical request streams")
	flag.StringVar(&opt.name, "workload", "", "run one workload and print one JSON result line (default: all four, both passes)")
	flag.Float64Var(&opt.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&opt.trace, "trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for binaries, tier logs, results.json and trace files")
	flag.BoolVar(&opt.compare, "compare", false, "compare two results files: -compare a.json b.json (each may be a comma-separated list of repeat runs)")
	flag.BoolVar(&opt.smoke, "smoke", false, "run every workload in-process at toy scale: checks the harness, measures nothing")
	flag.Parse()
	opt.args = flag.Args()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if opt.compare {
		if len(opt.args) != 2 {
			return fmt.Errorf("-compare wants two results files")
		}
		return compareFiles(os.Stdout, bf, opt.args[0], opt.args[1])
	}
	o := runOpts{seed: opt.seed, seconds: opt.seconds, outDir: opt.outDir, sc: fullScale}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	if opt.smoke {
		o.sc, o.inproc, o.seconds = smokeScale, true, 0.3
		o.outDir = filepath.Join(opt.outDir, "smoke")
		defer os.RemoveAll(o.outDir)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if !o.inproc && os.Getenv(pinnedEnv) == "" {
		// Build on every CPU there is, then measure on one: see pinnedEnv.
		if err := buildBinaries(filepath.Join(o.outDir, "bin")); err != nil {
			return err
		}
		err := reexecPinned()
		fmt.Fprintf(os.Stderr, "bench: not pinned to one CPU (%v): expect noisier readings\n", err)
	}
	if opt.name == "" {
		return runAll(o)
	}
	w, ok := workloadByName(opt.name)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.name)
	}
	o.w = w
	return runOne(o, opt.trace == 1)
}

// runOne is the driver's contract: one workload, one pass, one JSON object
// on the last line of standard output.
func runOne(o runOpts, traced bool) error {
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{}
	if traced {
		rep, err := runLadder(o)
		if err != nil {
			return err
		}
		printMetrics(o.w.name, perLayer, rep.Metrics)
		line.Attempted, line.Failed, line.Metrics = rep.Attempted, rep.Failed, rep.Metrics
	} else {
		rep, err := runE2E(o)
		if err != nil {
			return err
		}
		printMetrics(o.w.name, endToEnd, rep.Metrics)
		printObserved(o.w.name, rep)
		line.Attempted, line.Failed, line.Metrics = rep.Attempted, rep.Failed, rep.Metrics
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runAll is the one command: every workload end to end, then traced, every
// metric printed by name with its unit, results.json written.
func runAll(o runOpts) error {
	res := results{Schema: 1, Seed: o.seed, Seconds: o.seconds, GoVersion: runtime.Version(),
		CPUs: runtime.NumCPU(), Workloads: map[string]*workloadResult{}}
	failed := 0
	for _, w := range workloads {
		o.w = w
		fmt.Fprintf(os.Stderr, "bench: %s: end-to-end pass\n", w.name)
		rep, err := runE2E(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: traced pass\n", w.name)
		lad, err := runLadder(o)
		if err != nil {
			return err
		}
		res.Workloads[w.name] = &workloadResult{e2eReport: *rep, Ladder: lad}
		failed += rep.Failed + lad.Failed
	}
	for _, w := range workloads {
		r := res.Workloads[w.name]
		fmt.Printf("\n== %s: %d operations attempted, %d failed (failed_share %.6f); %d timed calls, %d auxiliary\n",
			w.name, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted), r.Calls, r.AuxCalls)
		printMetrics(w.name, endToEnd, r.Metrics)
		printObserved(w.name, &r.e2eReport)
		printMetrics(w.name, perLayer, r.Ladder.Metrics)
	}
	if !o.inproc {
		path := filepath.Join(o.outDir, "results.json")
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(o.outDir, "trace_<workload>.json"))
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or were answered wrongly", failed)
	}
	return nil
}

func printMetrics(workload string, decl []metric, vals map[string]value) {
	for _, m := range decl {
		v := vals[m.name]
		fmt.Printf("%-16s %-38s %14.4f %s\n", workload, m.name, v.Value, v.Unit)
	}
}

// printObserved prints what the tiers' own surfaces said about the timed
// window: the readings the regime guards judged.
func printObserved(workload string, r *e2eReport) {
	var names []string
	for k := range r.Observed {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-16s %-38s %14.4f observed\n", workload, k, r.Observed[k])
	}
	if r.FSType != "" {
		fmt.Printf("%-16s %-38s %14s\n", workload, "feedback_dir_fs", r.FSType)
	}
}

// quartiles cuts the values as Python's statistics.quantiles(v, n=4) does
// (the exclusive method), which is how the driver computes spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	at := func(p float64) float64 {
		h := p*float64(len(s)+1) - 1
		switch {
		case h <= 0:
			return s[0]
		case h >= float64(len(s)-1):
			return s[len(s)-1]
		}
		lo := int(h)
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
