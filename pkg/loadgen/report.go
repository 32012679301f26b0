package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// ReportSchema versions the BENCH_loadgen.json layout; bump it on any
// incompatible change so trajectory tooling can dispatch on it.
const ReportSchema = 1

// Report is the canonical loadgen artifact: the run configuration, the
// server identity it hit, client-observed results, and the scraped
// server-side deltas — everything needed to compare two runs in one file.
type Report struct {
	Schema      int    `json:"schema"`
	GeneratedAt string `json:"generated_at,omitempty"` // RFC3339, UTC

	Config RunConfig   `json:"config"`
	Server ServerInfo  `json:"server"`
	Client Results     `json:"client"`
	Delta  ServerDelta `json:"server_delta"`

	// Analytics is the server's post-run /debug/analytics rollup
	// (cumulative since server start; equal to the run on a fresh server).
	Analytics []selector.AnalyticsRow `json:"analytics,omitempty"`
	// Shadow is the post-run /debug/shadow report when shadow evaluation
	// is mounted.
	Shadow *registry.ShadowReport `json:"shadow,omitempty"`
	// ModelHealth is the post-run model-health view when the observatory
	// is mounted: drift verdicts from /debug/drift plus margin and
	// flight-recorder deltas from /metrics.
	ModelHealth *ModelHealthReport `json:"model_health,omitempty"`
	// Feedback tallies the oracle-labeled /v1/feedback side stream when
	// the run emits one (FeedbackFraction > 0).
	Feedback *FeedbackResults `json:"feedback,omitempty"`
	// Gateway is the per-replica routing view when the target is a fleet
	// gateway (TargetMode "gateway"): run-window deltas of the gateway's
	// /debug/replicas ledger.
	Gateway *GatewayResults `json:"gateway,omitempty"`
}

// GatewayResults is the gateway-mode routing evidence: how the run's
// requests spread across the replica set, plus the fleet-wide selection
// tally (the sum over replicas — comparable to a single-server run's
// server_delta.selections_by_collective for the same spec and seed).
type GatewayResults struct {
	Replicas []GatewayReplica `json:"replicas"`
	// SelectionsByCollective aggregates the per-replica deltas; with every
	// request answered it equals the single-server tally for the same
	// sequence.
	SelectionsByCollective map[string]uint64 `json:"selections_by_collective,omitempty"`
}

// GatewayReplica is one replica's run-window delta from /debug/replicas.
type GatewayReplica struct {
	ID      string `json:"id"`
	Healthy bool   `json:"healthy"`
	// Requests/Errors are proxy attempts the gateway sent this replica
	// during the run; Share is this replica's fraction of all attempts.
	Requests               uint64            `json:"requests"`
	Errors                 uint64            `json:"errors"`
	Share                  float64           `json:"share"`
	SelectionsByCollective map[string]uint64 `json:"selections_by_collective,omitempty"`
}

// FeedbackResults is the client-side ledger of the feedback emission
// stream: how many requests were flagged for emission and what the server
// said about each posted record.
type FeedbackResults struct {
	// Fraction echoes the configured emission fraction.
	Fraction float64 `json:"fraction"`
	// Flagged counts requests selected by the deterministic emission
	// stream; Posted counts the subset whose POST round-tripped with 200.
	Flagged uint64 `json:"flagged"`
	Posted  uint64 `json:"posted"`
	// Per-record server outcomes summed across posted records.
	Accepted    uint64 `json:"accepted"`
	Duplicates  uint64 `json:"duplicates"`
	Quarantined uint64 `json:"quarantined"`
	Invalid     uint64 `json:"invalid"`
	// Errors counts transport failures and non-200 envelopes; OracleSkips
	// counts collectives the analytical oracle cannot label.
	Errors      uint64 `json:"errors"`
	OracleSkips uint64 `json:"oracle_skips,omitempty"`
}

// ModelHealthReport summarizes the observatory's verdict on the run.
type ModelHealthReport struct {
	// DriftStatus is the overall post-run drift status ("ok", "warn",
	// "alert", "collecting", "no_reference").
	DriftStatus string `json:"drift_status"`
	// DriftLastPSI maps each monitored feature to the PSI of its most
	// recent completed window.
	DriftLastPSI map[string]float64 `json:"drift_last_psi,omitempty"`
	// DriftFeatureStatus maps each monitored feature to its own status.
	DriftFeatureStatus map[string]string `json:"drift_feature_status,omitempty"`
	// MarginObservations / LowMarginDecisions are run-window deltas of the
	// vote-margin telemetry; LowMarginRate is their ratio.
	MarginObservations uint64  `json:"margin_observations"`
	LowMarginDecisions uint64  `json:"low_margin_decisions"`
	LowMarginRate      float64 `json:"low_margin_rate"`
	// FlightRecords is the run-window delta of anomaly records captured.
	FlightRecords uint64 `json:"flightrec_records"`
}

// RunConfig records the knobs that produced the run. SequenceHash pins the
// exact request sequence: two reports with equal spec/seed/hash replayed
// identical workloads.
type RunConfig struct {
	SpecName         string  `json:"spec_name"`
	TargetMode       string  `json:"target_mode,omitempty"`
	Seed             int64   `json:"seed"`
	SequenceHash     string  `json:"sequence_hash"`
	QPS              float64 `json:"target_qps"`
	DurationSeconds  float64 `json:"duration_seconds"`
	WarmupSeconds    float64 `json:"warmup_seconds"`
	Workers          int     `json:"workers"`
	BatchFraction    float64 `json:"batch_fraction"`
	BatchSize        int     `json:"batch_size,omitempty"`
	FeedbackFraction float64 `json:"feedback_fraction,omitempty"`
	Scheduled        int     `json:"scheduled_requests"`
}

// ServerInfo stamps the server identity at run start.
type ServerInfo struct {
	Version            string   `json:"version"`
	GoVersion          string   `json:"go_version"`
	ModelVersion       string   `json:"model_version,omitempty"`
	Generation         uint64   `json:"generation,omitempty"`
	GenerationHash     string   `json:"generation_hash,omitempty"`
	Collectives        []string `json:"collectives,omitempty"`
	UptimeSecondsStart float64  `json:"uptime_seconds_at_start"`
}

// Results is the client-observed side of the run. Latencies are measured
// from each request's *scheduled* start (open-loop), so queueing induced
// by a saturated server is charged to the server, not hidden — the
// coordinated-omission-safe convention.
type Results struct {
	Measured        uint64  `json:"measured_requests"`
	WarmupRequests  uint64  `json:"warmup_requests"`
	Completed       uint64  `json:"completed"`
	Errors          uint64  `json:"errors"`
	MeasuredSeconds float64 `json:"measured_window_seconds"`
	ThroughputRPS   float64 `json:"throughput_rps"`

	// Latency aggregates every measured request; Endpoints splits it by
	// API surface ("/v1/select" per request, "/v1/select/batch" per call).
	Latency   obs.Summary            `json:"latency"`
	Endpoints map[string]obs.Summary `json:"endpoints,omitempty"`

	ErrorsByKind map[string]uint64 `json:"errors_by_kind,omitempty"`
}

// ServerDelta is the after-minus-before view of the server's /metrics over
// the run window.
type ServerDelta struct {
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	SelectionsByCollective map[string]uint64 `json:"selections_by_collective,omitempty"`
	// SelectPathCounts splits pmlmpi_select_duration_seconds observations
	// by path label (cold vs. cache_hit).
	SelectPathCounts map[string]uint64 `json:"select_path_counts,omitempty"`
	// SelectLatency summarizes the server-side select-duration histogram
	// delta — the in-process cost, without HTTP/network.
	SelectLatency obs.Summary `json:"select_latency"`

	// RecentDecisionsByGeneration tallies the bounded /debug/decisions
	// ring after the run — a sample of which model generation answered.
	RecentDecisionsByGeneration map[string]uint64 `json:"recent_decisions_by_generation,omitempty"`

	// FeedbackByOutcome is the run-window delta of the server's
	// pmlmpi_feedback_records_total counter by outcome — the server-side
	// cross-check of the client's FeedbackResults ledger.
	FeedbackByOutcome map[string]uint64 `json:"feedback_by_outcome,omitempty"`
	// RetrainCycles is the run-window delta of pmlmpi_retrain_cycles_total
	// by outcome: retrain cycles the workload triggered while running.
	RetrainCycles map[string]uint64 `json:"retrain_cycles,omitempty"`
}

// WriteFile atomically writes the report as indented JSON: temp file in
// the destination directory, fsync, rename. A crashed or concurrent run
// can never leave a torn BENCH artifact.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rename report into place: %w", err)
	}
	return nil
}
