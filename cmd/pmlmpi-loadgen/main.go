// Command pmlmpi-loadgen replays a deterministic, seeded workload against
// a running pmlmpi-server and writes the canonical BENCH_loadgen.json
// artifact: client-observed throughput and latency quantiles next to the
// server-side counter deltas scraped over the run window. The same seed
// and spec always produce byte-identical request sequences, so two
// reports with matching sequence hashes benchmarked identical workloads.
//
// Typical use:
//
//	pmlmpi-server -bundle pkg/bundle/testdata/trained_small.json &
//	pmlmpi-loadgen -target http://127.0.0.1:8080 -qps 500 -duration 10s -out BENCH_loadgen.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
)

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "base URL of the pmlmpi-server (or pmlmpi-gateway) to load")
		mode     = flag.String("target-mode", loadgen.ModeServer, "what -target points at: \"server\" or \"gateway\" (gateway mode adds a per-replica routing section; the request sequence is identical either way)")
		qps      = flag.Float64("qps", 200, "target open-loop arrival rate (requests/second)")
		duration = flag.Duration("duration", 5*time.Second, "measured window")
		warmup   = flag.Duration("warmup", time.Second, "warmup period excluded from client statistics")
		workers  = flag.Int("workers", 8, "HTTP worker-pool size")
		seed     = flag.Int64("seed", 1, "workload seed; same seed + same spec = identical request bytes")
		specPath = flag.String("spec", "", "workload spec JSON file (empty = built-in dlcomm-mix/v1)")
		out      = flag.String("out", "BENCH_loadgen.json", "report destination (written atomically; \"-\" = stdout only)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
		dumpSpec = flag.Bool("print-spec", false, "print the effective workload spec as JSON and exit")
		fbFrac   = flag.Float64("feedback-fraction", 0, "fraction of requests that also POST an oracle-labeled record to /v1/feedback (0 disables; never perturbs the request sequence)")
	)
	flag.Parse()

	if err := run(*target, *mode, *qps, *duration, *warmup, *workers, *seed, *specPath, *out, *timeout, *dumpSpec, *fbFrac); err != nil {
		fmt.Fprintln(os.Stderr, "pmlmpi-loadgen:", err)
		os.Exit(1)
	}
}

func run(target, mode string, qps float64, duration, warmup time.Duration, workers int, seed int64, specPath, out string, timeout time.Duration, dumpSpec bool, fbFrac float64) error {
	spec := loadgen.DefaultSpec()
	if specPath != "" {
		var err error
		if spec, err = loadgen.LoadSpec(specPath); err != nil {
			return err
		}
	}
	if dumpSpec {
		return printJSON(os.Stdout, spec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "pmlmpi-loadgen %s: %s @ %.0f qps for %s (warmup %s), spec %s, seed %d\n",
		buildinfo.Resolve(), target, qps, duration, warmup, spec.Name, seed)
	rep, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:          target,
		TargetMode:       mode,
		Spec:             &spec,
		Seed:             seed,
		QPS:              qps,
		Duration:         duration,
		Warmup:           warmup,
		Workers:          workers,
		Timeout:          timeout,
		FeedbackFraction: fbFrac,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr,
		"done: %d/%d completed, %d errors, %.1f rps | client p50/p99 %.0f/%.0fus | server p50/p99 %.1f/%.1fus | cache hit rate %.2f\n",
		rep.Client.Completed, rep.Client.Measured, rep.Client.Errors, rep.Client.ThroughputRPS,
		rep.Client.Latency.P50US, rep.Client.Latency.P99US,
		rep.Delta.SelectLatency.P50US, rep.Delta.SelectLatency.P99US,
		rep.Delta.CacheHitRate)
	if gw := rep.Gateway; gw != nil {
		for _, r := range gw.Replicas {
			fmt.Fprintf(os.Stderr, "gateway: replica %s healthy=%v share=%.2f (%d requests, %d errors)\n",
				r.ID, r.Healthy, r.Share, r.Requests, r.Errors)
		}
	}
	if fb := rep.Feedback; fb != nil {
		fmt.Fprintf(os.Stderr,
			"feedback: %d flagged, %d posted (%d accepted, %d duplicate, %d quarantined, %d invalid), %d errors\n",
			fb.Flagged, fb.Posted, fb.Accepted, fb.Duplicates, fb.Quarantined, fb.Invalid, fb.Errors)
	}

	if out == "-" {
		return printJSON(os.Stdout, rep)
	}
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "report written to %s (sequence %s)\n", out, rep.Config.SequenceHash[:12])
	return nil
}

func printJSON(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
