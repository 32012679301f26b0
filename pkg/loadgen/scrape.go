package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// probe scrapes the server's observability surface before and after a run
// so the report can carry true per-run deltas rather than
// since-server-start cumulatives.
type probe struct {
	base   string
	client *http.Client
}

func newProbe(base string, client *http.Client) *probe {
	return &probe{base: strings.TrimRight(base, "/"), client: client}
}

func (p *probe) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverHealth is the subset of /healthz the report stamps.
type serverHealth struct {
	Status        string   `json:"status"`
	ServerVersion string   `json:"server_version"`
	GoVersion     string   `json:"go_version"`
	ModelVersion  string   `json:"model_version"`
	TrainedOn     []string `json:"trained_on"`
	Generation    *struct {
		ID   uint64 `json:"id"`
		Hash string `json:"hash"`
	} `json:"generation"`
	Collectives   map[string]json.RawMessage `json:"collectives"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
}

func (p *probe) health(ctx context.Context) (serverHealth, error) {
	var h serverHealth
	err := p.getJSON(ctx, "/healthz", &h)
	return h, err
}

func (p *probe) analytics(ctx context.Context) ([]selector.AnalyticsRow, error) {
	var resp struct {
		Rows []selector.AnalyticsRow `json:"rows"`
	}
	err := p.getJSON(ctx, "/debug/analytics", &resp)
	return resp.Rows, err
}

// shadow returns the /debug/shadow report, or nil when the endpoint is not
// mounted (shadow evaluation disabled).
func (p *probe) shadow(ctx context.Context) (*registry.ShadowReport, error) {
	var rep registry.ShadowReport
	err := p.getJSON(ctx, "/debug/shadow", &rep)
	if err != nil {
		if strings.Contains(err.Error(), "404") {
			return nil, nil
		}
		return nil, err
	}
	return &rep, nil
}

// drift returns the /debug/drift report, or nil when the endpoint is not
// mounted (model-health observatory disabled).
func (p *probe) drift(ctx context.Context) (*modelhealth.DriftReport, error) {
	var rep modelhealth.DriftReport
	err := p.getJSON(ctx, "/debug/drift", &rep)
	if err != nil {
		if strings.Contains(err.Error(), "404") {
			return nil, nil
		}
		return nil, err
	}
	return &rep, nil
}

// decisionsByGeneration tallies the /debug/decisions ring by model
// generation. The ring is bounded, so this is a recent-window sample — the
// fleet-level "which generation answered" signal, not an exact count.
func (p *probe) decisionsByGeneration(ctx context.Context) (map[string]uint64, error) {
	var resp struct {
		Decisions []struct {
			Generation uint64 `json:"generation"`
		} `json:"decisions"`
	}
	if err := p.getJSON(ctx, "/debug/decisions?limit=0", &resp); err != nil {
		return nil, err
	}
	tally := make(map[string]uint64)
	for _, d := range resp.Decisions {
		tally[strconv.FormatUint(d.Generation, 10)]++
	}
	return tally, nil
}

// gatewayReplicaRow mirrors one row of the gateway's /debug/replicas
// ledger (cumulative since gateway start; the report diffs two scrapes).
type gatewayReplicaRow struct {
	ID                     string            `json:"id"`
	Healthy                bool              `json:"healthy"`
	Requests               uint64            `json:"requests"`
	Errors                 uint64            `json:"errors"`
	SelectionsByCollective map[string]uint64 `json:"selections_by_collective"`
}

// gatewayReplicas scrapes /debug/replicas. Unlike the optional debug
// surfaces, gateway mode treats a failure here as fatal before the run:
// without the ledger there is no routing evidence to report.
func (p *probe) gatewayReplicas(ctx context.Context) ([]gatewayReplicaRow, error) {
	var resp struct {
		Replicas []gatewayReplicaRow `json:"replicas"`
	}
	if err := p.getJSON(ctx, "/debug/replicas", &resp); err != nil {
		return nil, err
	}
	return resp.Replicas, nil
}

// gatewayResults diffs two /debug/replicas scrapes into the report's
// gateway section: per-replica request/error/selection deltas, each
// replica's share of proxy attempts, and the fleet-wide selection tally.
func gatewayResults(before, after []gatewayReplicaRow) *GatewayResults {
	prev := make(map[string]gatewayReplicaRow, len(before))
	for _, r := range before {
		prev[r.ID] = r
	}
	out := &GatewayResults{}
	var total uint64
	for _, r := range after {
		b := prev[r.ID]
		row := GatewayReplica{
			ID:       r.ID,
			Healthy:  r.Healthy,
			Requests: subU64(r.Requests, b.Requests),
			Errors:   subU64(r.Errors, b.Errors),
		}
		for c, n := range r.SelectionsByCollective {
			d := subU64(n, b.SelectionsByCollective[c])
			if d == 0 {
				continue
			}
			if row.SelectionsByCollective == nil {
				row.SelectionsByCollective = make(map[string]uint64)
			}
			row.SelectionsByCollective[c] = d
			if out.SelectionsByCollective == nil {
				out.SelectionsByCollective = make(map[string]uint64)
			}
			out.SelectionsByCollective[c] += d
		}
		total += row.Requests
		out.Replicas = append(out.Replicas, row)
	}
	if total > 0 {
		for i := range out.Replicas {
			out.Replicas[i].Share = float64(out.Replicas[i].Requests) / float64(total)
		}
	}
	return out
}

func subU64(a, b uint64) uint64 {
	if a <= b {
		return 0
	}
	return a - b
}

// metricsSnapshot is the scraped subset of /metrics the report diffs:
// decision-cache traffic, per-collective selection counts, and the merged
// pmlmpi_select_duration_seconds histogram.
type metricsSnapshot struct {
	cacheHits   float64
	cacheMisses float64
	selections  map[string]float64 // by collective
	pathCounts  map[string]float64 // select duration _count by path label
	bounds      []float64          // sorted finite le bounds
	buckets     map[float64]float64
	sum         float64
	count       float64

	marginCount   float64 // pmlmpi_margin_vote observations across collectives
	marginLow     float64 // pmlmpi_margin_low_total across collectives
	flightRecords float64 // pmlmpi_flightrec_records_total across reasons

	feedbackByOutcome map[string]float64 // pmlmpi_feedback_records_total by outcome
	retrainByOutcome  map[string]float64 // pmlmpi_retrain_cycles_total by outcome
}

func (p *probe) metrics(ctx context.Context) (*metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body))
}

func parseMetrics(text string) (*metricsSnapshot, error) {
	snap := &metricsSnapshot{
		selections:        make(map[string]float64),
		pathCounts:        make(map[string]float64),
		buckets:           make(map[float64]float64),
		feedbackByOutcome: make(map[string]float64),
		retrainByOutcome:  make(map[string]float64),
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, ok := parsePromLine(line)
		if !ok {
			continue
		}
		switch name {
		case "pmlmpi_cache_hits_total":
			snap.cacheHits += value
		case "pmlmpi_cache_misses_total":
			snap.cacheMisses += value
		case "pmlmpi_selections_total":
			snap.selections[labels["collective"]] += value
		case "pmlmpi_select_duration_seconds_sum":
			snap.sum += value
		case "pmlmpi_select_duration_seconds_count":
			snap.count += value
			snap.pathCounts[labels["path"]] += value
		case "pmlmpi_margin_vote_count":
			snap.marginCount += value
		case "pmlmpi_margin_low_total":
			snap.marginLow += value
		case "pmlmpi_flightrec_records_total":
			snap.flightRecords += value
		case "pmlmpi_feedback_records_total":
			snap.feedbackByOutcome[labels["outcome"]] += value
		case "pmlmpi_retrain_cycles_total":
			snap.retrainByOutcome[labels["outcome"]] += value
		case "pmlmpi_select_duration_seconds_bucket":
			le, err := parseLE(labels["le"])
			if err != nil {
				return nil, fmt.Errorf("bad le label in %q: %w", line, err)
			}
			snap.buckets[le] += value
		}
	}
	for le := range snap.buckets {
		if !math.IsInf(le, 1) {
			snap.bounds = append(snap.bounds, le)
		}
	}
	sort.Float64s(snap.bounds)
	return snap, nil
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parsePromLine parses one Prometheus text-format sample:
// name{k="v",...} value. Label values in this codebase never contain
// escaped quotes, so a simple quote scan suffices.
func parsePromLine(line string) (name string, labels map[string]string, value float64, ok bool) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return "", nil, 0, false
		}
		for _, pair := range splitLabels(line[i+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				continue
			}
			labels[pair[:eq]] = strings.Trim(pair[eq+1:], `"`)
		}
		rest = strings.TrimSpace(line[end+1:])
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", nil, 0, false
		}
		name = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	// The value is the first whitespace-separated token (a timestamp may
	// follow in the general format; this codebase emits none).
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, false
	}
	return name, labels, v, true
}

// splitLabels splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		parts = append(parts, s[start:])
	}
	return parts
}

// delta computes after-minus-before for every tracked counter family and
// folds the merged histogram delta into an obs.Summary. Negative deltas
// (server restarted mid-run) clamp to zero.
func (after *metricsSnapshot) delta(before *metricsSnapshot) ServerDelta {
	d := ServerDelta{
		CacheHits:              clampU64(after.cacheHits - before.cacheHits),
		CacheMisses:            clampU64(after.cacheMisses - before.cacheMisses),
		SelectionsByCollective: make(map[string]uint64),
		SelectPathCounts:       make(map[string]uint64),
	}
	if total := d.CacheHits + d.CacheMisses; total > 0 {
		d.CacheHitRate = float64(d.CacheHits) / float64(total)
	}
	for c, v := range after.selections {
		if n := clampU64(v - before.selections[c]); n > 0 {
			d.SelectionsByCollective[c] = n
		}
	}
	for p, v := range after.pathCounts {
		if n := clampU64(v - before.pathCounts[p]); n > 0 {
			d.SelectPathCounts[p] = n
		}
	}
	for o, v := range after.feedbackByOutcome {
		if n := clampU64(v - before.feedbackByOutcome[o]); n > 0 {
			if d.FeedbackByOutcome == nil {
				d.FeedbackByOutcome = make(map[string]uint64)
			}
			d.FeedbackByOutcome[o] = n
		}
	}
	for o, v := range after.retrainByOutcome {
		if n := clampU64(v - before.retrainByOutcome[o]); n > 0 {
			if d.RetrainCycles == nil {
				d.RetrainCycles = make(map[string]uint64)
			}
			d.RetrainCycles[o] = n
		}
	}

	// Histogram delta: cumulative per-le differences, then de-cumulated
	// into per-bucket counts (+Inf last).
	b := obs.BucketSnapshot{
		Bounds: after.bounds,
		Counts: make([]uint64, len(after.bounds)+1),
		Sum:    after.sum - before.sum,
		Count:  clampU64(after.count - before.count),
	}
	var prev float64
	for i, le := range b.Bounds {
		cum := after.buckets[le] - before.buckets[le]
		b.Counts[i] = clampU64(cum - prev)
		prev = cum
	}
	inf := math.Inf(1)
	b.Counts[len(b.Bounds)] = clampU64((after.buckets[inf] - before.buckets[inf]) - prev)
	d.SelectLatency = b.Summary()
	return d
}

// modelHealthReport folds the post-run drift report and the margin /
// flight-recorder counter deltas into the report's model_health section.
// after may be nil (failed post-run scrape); the drift verdicts still land.
func modelHealthReport(dr *modelhealth.DriftReport, before, after *metricsSnapshot) *ModelHealthReport {
	mh := &ModelHealthReport{DriftStatus: dr.Status}
	if len(dr.Features) > 0 {
		mh.DriftLastPSI = make(map[string]float64, len(dr.Features))
		mh.DriftFeatureStatus = make(map[string]string, len(dr.Features))
		for _, f := range dr.Features {
			mh.DriftLastPSI[f.Feature] = f.LastPSI
			mh.DriftFeatureStatus[f.Feature] = f.Status
		}
	}
	if after != nil {
		mh.MarginObservations = clampU64(after.marginCount - before.marginCount)
		mh.LowMarginDecisions = clampU64(after.marginLow - before.marginLow)
		mh.FlightRecords = clampU64(after.flightRecords - before.flightRecords)
		if mh.MarginObservations > 0 {
			mh.LowMarginRate = float64(mh.LowMarginDecisions) / float64(mh.MarginObservations)
		}
	}
	return mh
}

func clampU64(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(v + 0.5)
}
