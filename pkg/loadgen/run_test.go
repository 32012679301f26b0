package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/serve"
)

// newLiveServer serves the committed trained fixture through the stack
// cmd/pmlmpi-server runs (serve.New with the binary's defaults), behind
// httptest.
func newLiveServer(t *testing.T) *httptest.Server {
	return newServer(t, serve.Defaults())
}

func newServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	cfg.Bundle = filepath.Join("..", "bundle", "testdata", "trained_small.json")
	st, err := serve.New(cfg, obs.NewForTest())
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv := httptest.NewServer(st.Handler)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv
}

func monotone(t *testing.T, label string, s obs.Summary) {
	t.Helper()
	if !(s.P50US <= s.P90US && s.P90US <= s.P99US && s.P99US <= s.P999US) {
		t.Errorf("%s quantiles not monotone: p50=%v p90=%v p99=%v p999=%v",
			label, s.P50US, s.P90US, s.P99US, s.P999US)
	}
}

func TestRunEndToEnd(t *testing.T) {
	srv := newLiveServer(t)
	opts := Options{
		BaseURL:  srv.URL,
		Seed:     11,
		QPS:      600,
		Duration: time.Second,
		Warmup:   200 * time.Millisecond,
		Workers:  8,
		Logf:     t.Logf,
	}
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// Client side: a healthy fixture server must answer everything.
	if rep.Client.Errors != 0 {
		t.Fatalf("errors = %d (%v), want 0", rep.Client.Errors, rep.Client.ErrorsByKind)
	}
	if rep.Client.Completed == 0 || rep.Client.ThroughputRPS <= 0 {
		t.Fatalf("completed = %d, throughput = %v", rep.Client.Completed, rep.Client.ThroughputRPS)
	}
	if rep.Client.Completed+rep.Client.WarmupRequests != uint64(rep.Config.Scheduled) {
		t.Errorf("completed %d + warmup %d != scheduled %d",
			rep.Client.Completed, rep.Client.WarmupRequests, rep.Config.Scheduled)
	}
	monotone(t, "client", rep.Client.Latency)
	for ep, s := range rep.Client.Endpoints {
		monotone(t, ep, s)
	}
	if _, ok := rep.Client.Endpoints["/v1/select"]; !ok {
		t.Error("no /v1/select endpoint stats")
	}
	if _, ok := rep.Client.Endpoints["/v1/select/batch"]; !ok {
		t.Error("no /v1/select/batch endpoint stats (DefaultSpec batches 20%)")
	}

	// The run config pins the exact workload for replay.
	seq, _ := Sequence(*opts.withDefaults().Spec, opts.Seed, rep.Config.Scheduled)
	wantHash, _ := SequenceHash(seq)
	if rep.Config.SequenceHash != wantHash {
		t.Errorf("report hash %s != recomputed %s", rep.Config.SequenceHash, wantHash)
	}

	// Server stamp.
	if rep.Server.Version == "" || rep.Server.GoVersion == "" {
		t.Errorf("server stamp incomplete: %+v", rep.Server)
	}
	if len(rep.Server.Collectives) != 2 {
		t.Errorf("collectives = %v, want [allgather broadcast]", rep.Server.Collectives)
	}

	// Server-side delta: every scheduled request (warmup included — the
	// server has no warmup concept) ran exactly one Select.
	var selections uint64
	for _, n := range rep.Delta.SelectionsByCollective {
		selections += n
	}
	if selections != uint64(rep.Config.Scheduled) {
		t.Errorf("server-side selections delta = %d, want %d", selections, rep.Config.Scheduled)
	}
	if rep.Delta.SelectLatency.Count != uint64(rep.Config.Scheduled) {
		t.Errorf("select histogram delta count = %d, want %d",
			rep.Delta.SelectLatency.Count, rep.Config.Scheduled)
	}
	monotone(t, "server delta", rep.Delta.SelectLatency)
	// The fixture grid repeats, so the decision cache must be doing work.
	if rep.Delta.CacheHits == 0 || rep.Delta.CacheHitRate <= 0 {
		t.Errorf("cache delta hits=%d rate=%v, want hits under a repeating grid",
			rep.Delta.CacheHits, rep.Delta.CacheHitRate)
	}
	if len(rep.Delta.RecentDecisionsByGeneration) == 0 {
		t.Error("no per-generation decision tally scraped")
	}
	if len(rep.Analytics) == 0 {
		t.Fatal("no analytics rows scraped")
	}

	// Quantile cross-validation: the /metrics histogram delta merges every
	// series, while each /debug/analytics row reads one (collective,
	// algorithm) and clamps to its exact min/max. A mixture's quantile lies
	// within the min/max of its components' quantiles, so the merged
	// metric-side estimate must land inside the analytics rows' span,
	// widened by one bucket factor on each side (~factor-2.5
	// LatencyBuckets, the clamp included).
	checkQuantileAgainstAnalytics(t, "p50", rep.Delta.SelectLatency.P50US, rep.Analytics,
		func(r selector.AnalyticsRow) float64 { return r.P50US })
	checkQuantileAgainstAnalytics(t, "p99", rep.Delta.SelectLatency.P99US, rep.Analytics,
		func(r selector.AnalyticsRow) float64 { return r.P99US })
}

func checkQuantileAgainstAnalytics(t *testing.T, label string, gotUS float64, rows []selector.AnalyticsRow, pick func(selector.AnalyticsRow) float64) {
	t.Helper()
	const tolerance = 5.0 // one bucket boundary of slack on each estimator
	lo, hi := pick(rows[0]), pick(rows[0])
	for _, r := range rows[1:] {
		if v := pick(r); v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	if gotUS < lo/tolerance || gotUS > hi*tolerance {
		t.Errorf("%s: metrics-delta estimate %vus outside analytics span [%v, %v]us × tolerance %v",
			label, gotUS, lo, hi, tolerance)
	}
}

// TestRunSequenceHashStableAcrossRuns: the byte-identical-replay
// guarantee, end to end — two live runs with one seed report one hash.
func TestRunSequenceHashStableAcrossRuns(t *testing.T) {
	srv := newLiveServer(t)
	opts := Options{
		BaseURL:  srv.URL,
		Seed:     23,
		QPS:      300,
		Duration: 400 * time.Millisecond,
		Workers:  4,
	}
	a, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.SequenceHash != b.Config.SequenceHash {
		t.Fatalf("same seed, different workloads: %s vs %s", a.Config.SequenceHash, b.Config.SequenceHash)
	}
	if a.Config.Scheduled != b.Config.Scheduled {
		t.Fatalf("scheduled %d vs %d", a.Config.Scheduled, b.Config.Scheduled)
	}
}

// TestRunDriftVerdicts is the end-to-end drift check: a workload drawn
// uniformly from the training sweep's own grids must leave /debug/drift at
// "ok", and the same-size workload shifted entirely outside the training
// support must flip it to "alert". Both runs are seeded, so the verdicts
// are deterministic. The committed spec files are the same ones the CI
// drift smoke replays against a real server binary.
func TestRunDriftVerdicts(t *testing.T) {
	cases := []struct {
		specFile   string
		wantStatus string
	}{
		{"spec_sweep_indist.json", "ok"},
		{"spec_sweep_shifted.json", "alert"},
	}
	for _, tc := range cases {
		t.Run(tc.specFile, func(t *testing.T) {
			spec, err := LoadSpec(filepath.Join("testdata", tc.specFile))
			if err != nil {
				t.Fatalf("load spec: %v", err)
			}
			srv := newLiveServer(t)
			// 800 scheduled requests complete one full default drift window
			// (512) for every monitored feature.
			rep, err := Run(context.Background(), Options{
				BaseURL:  srv.URL,
				Spec:     &spec,
				Seed:     7,
				QPS:      800,
				Duration: time.Second,
				Workers:  8,
				Logf:     t.Logf,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.Client.Errors != 0 {
				t.Fatalf("errors = %d (%v), want 0", rep.Client.Errors, rep.Client.ErrorsByKind)
			}
			mh := rep.ModelHealth
			if mh == nil {
				t.Fatal("report has no model_health section despite a mounted observatory")
			}
			if mh.DriftStatus != tc.wantStatus {
				t.Fatalf("drift status = %q (per-feature PSI %v), want %q",
					mh.DriftStatus, mh.DriftLastPSI, tc.wantStatus)
			}
			// Every scheduled request fed the margin telemetry exactly once.
			if mh.MarginObservations != uint64(rep.Config.Scheduled) {
				t.Errorf("margin observations = %d, want %d (one per scheduled request)",
					mh.MarginObservations, rep.Config.Scheduled)
			}
			for feat, status := range mh.DriftFeatureStatus {
				if status != tc.wantStatus {
					t.Errorf("feature %s status = %q, want %q (psi %v)",
						feat, status, tc.wantStatus, mh.DriftLastPSI[feat])
				}
			}
		})
	}
}

func TestRunRefusesUnreachableServer(t *testing.T) {
	_, err := Run(context.Background(), Options{
		BaseURL: "http://127.0.0.1:1",
		Timeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("want error against unreachable server")
	}
}

func TestReportWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_loadgen.json")
	rep := &Report{Schema: ReportSchema, Config: RunConfig{SpecName: "x", Seed: 1}}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if back.Schema != ReportSchema || back.Config.SpecName != "x" {
		t.Fatalf("round trip = %+v", back)
	}
	// No temp litter after a successful rename.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

// newSelfTuningServer is the live fixture server with -feedback-dir set:
// the feedback store and an idle retrain controller.
func newSelfTuningServer(t *testing.T) *httptest.Server {
	cfg := serve.Defaults()
	cfg.FeedbackDir = t.TempDir()
	return newServer(t, cfg)
}

// TestRunFeedbackEmission: a feedback-emitting run posts oracle-labeled
// records for exactly the flagged requests, the server accepts or dedups
// every one (the oracle labels itself, so nothing can be implausible), the
// client and server ledgers agree, and the sequence hash is the same one a
// feedback-free run would report.
func TestRunFeedbackEmission(t *testing.T) {
	srv := newSelfTuningServer(t)
	opts := Options{
		BaseURL:          srv.URL,
		Seed:             11,
		QPS:              400,
		Duration:         time.Second,
		Workers:          8,
		FeedbackFraction: 0.5,
		Logf:             t.Logf,
	}
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Client.Errors != 0 {
		t.Fatalf("client errors = %d (%v)", rep.Client.Errors, rep.Client.ErrorsByKind)
	}
	fb := rep.Feedback
	if fb == nil {
		t.Fatal("report has no feedback section despite FeedbackFraction 0.5")
	}
	if rep.Config.FeedbackFraction != 0.5 || fb.Fraction != 0.5 {
		t.Errorf("feedback fraction not echoed: config %v, results %v", rep.Config.FeedbackFraction, fb.Fraction)
	}
	if fb.Flagged == 0 || fb.Flagged >= uint64(rep.Config.Scheduled) {
		t.Fatalf("flagged = %d of %d scheduled at fraction 0.5", fb.Flagged, rep.Config.Scheduled)
	}
	if fb.Errors != 0 || fb.OracleSkips != 0 {
		t.Fatalf("feedback errors=%d oracle_skips=%d, want 0 (%+v)", fb.Errors, fb.OracleSkips, fb)
	}
	if fb.Posted != fb.Flagged {
		t.Errorf("posted %d != flagged %d", fb.Posted, fb.Flagged)
	}
	// The oracle labels its own records, so every post is accepted or a
	// dedup of an earlier identical feature point.
	if fb.Accepted == 0 || fb.Accepted+fb.Duplicates != fb.Posted {
		t.Errorf("accepted %d + duplicates %d != posted %d (quarantined %d, invalid %d)",
			fb.Accepted, fb.Duplicates, fb.Posted, fb.Quarantined, fb.Invalid)
	}
	// Server-side cross-check via the scraped counter delta.
	if got := rep.Delta.FeedbackByOutcome["accepted"]; got != fb.Accepted {
		t.Errorf("server accepted delta = %d, client saw %d", got, fb.Accepted)
	}
	if got := rep.Delta.FeedbackByOutcome["duplicate"]; got != fb.Duplicates {
		t.Errorf("server duplicate delta = %d, client saw %d", got, fb.Duplicates)
	}
	// Feedback emission must not perturb the workload: the hash matches
	// the pure expansion of (spec, seed, n).
	seq, _ := Sequence(*opts.withDefaults().Spec, opts.Seed, rep.Config.Scheduled)
	wantHash, _ := SequenceHash(seq)
	if rep.Config.SequenceHash != wantHash {
		t.Errorf("report hash %s != feedback-free expansion %s", rep.Config.SequenceHash, wantHash)
	}
}

func TestRunRejectsBadFeedbackFraction(t *testing.T) {
	if _, err := Run(context.Background(), Options{BaseURL: "http://127.0.0.1:1", FeedbackFraction: 1.5}); err == nil {
		t.Fatal("want error for feedback fraction > 1")
	}
}
