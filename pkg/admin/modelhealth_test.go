package admin

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// trainedFixture is the committed trained bundle that carries embedded
// feature_stats, so drift monitoring has a training reference.
var trainedFixture = filepath.Join("..", "bundle", "testdata", "trained_small.json")

// trainedFeatures is a full canonical feature vector inside the fixture's
// training sweep support.
var trainedFeatures = map[string]float64{
	"num_nodes": 4, "ppn": 8, "log2_msg_size": 10,
	"max_clock_ghz": 2.6, "l3_cache_mib": 32, "mem_bw_gbs": 180,
	"core_count": 32, "thread_count": 64, "sockets": 2, "numa_nodes": 4,
	"pcie_lanes": 64, "pcie_gen": 4, "link_speed_gbps": 100, "link_width": 4,
}

// newHealthServer wires the admin surface over a registry-backed selector
// with cache and a model-health observatory.
func newHealthServer(t *testing.T, hcfg modelhealth.Config) (*Server, *selector.Selector, *obs.Obs) {
	t.Helper()
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	r := registry.New(o, registry.Config{})
	g, err := r.Load(trainedFixture)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if _, err := r.Promote(g.ID()); err != nil {
		t.Fatalf("promote: %v", err)
	}
	health := modelhealth.New(o.Registry, hcfg)
	sel := selector.NewFromSource(r, o, selector.Config{
		RingSize: 64,
		Cache:    cache.New(cache.Config{}, o.Registry),
		Health:   health,
	})
	return New(sel, o, Config{Registry: r, Health: health}), sel, o
}

// TestModelHealthEndpointsAbsentWithoutObservatory: servers without an
// observatory keep the legacy surface — no new routes, no healthz block.
func TestModelHealthEndpointsAbsentWithoutObservatory(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, path := range []string{"/debug/drift", "/debug/scorecards", "/debug/flightrecorder"} {
		if rec := get(t, srv, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s without health = %d, want 404", path, rec.Code)
		}
	}
	var h Health
	if err := json.Unmarshal(get(t, srv, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.ModelHealth != nil {
		t.Errorf("healthz carries model_health without an observatory: %+v", h.ModelHealth)
	}
}

func TestHealthzModelHealthBlock(t *testing.T) {
	srv, sel, _ := newHealthServer(t, modelhealth.Config{})
	if _, err := sel.Select(context.Background(), "allgather", trainedFeatures); err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.Unmarshal(get(t, srv, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.ModelHealth == nil {
		t.Fatal("healthz missing model_health block")
	}
	if h.ModelHealth.DriftStatus != "collecting" {
		t.Errorf("drift_status = %q, want collecting after one selection", h.ModelHealth.DriftStatus)
	}
	if h.ModelHealth.Decisions != 1 {
		t.Errorf("decisions = %d, want 1", h.ModelHealth.Decisions)
	}
	if h.ModelHealth.FlightRecCapacity != modelhealth.DefaultFlightRecSize {
		t.Errorf("flight capacity = %d", h.ModelHealth.FlightRecCapacity)
	}
}

func TestDebugDriftEndpoint(t *testing.T) {
	srv, sel, _ := newHealthServer(t, modelhealth.Config{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sel.Select(ctx, "broadcast", trainedFeatures); err != nil {
			t.Fatal(err)
		}
	}
	rec := get(t, srv, "/debug/drift")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/drift = %d", rec.Code)
	}
	var rep modelhealth.DriftReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "collecting" || rep.WindowSize != modelhealth.DefaultWindow {
		t.Errorf("report = status %q window %d", rep.Status, rep.WindowSize)
	}
	if rep.Generation == 0 {
		t.Error("report missing registry generation")
	}
	if rep.ReferenceSource != "train/sweep" {
		t.Errorf("reference_source = %q", rep.ReferenceSource)
	}
	if len(rep.Features) != len(modelhealth.DefaultDriftFeatures) {
		t.Fatalf("features = %d, want %d", len(rep.Features), len(modelhealth.DefaultDriftFeatures))
	}
	for _, f := range rep.Features {
		// 3 selections, but 2 were cache hits on the same key — every
		// selection (hit or cold) feeds the sketches.
		if f.Pending != 3 {
			t.Errorf("%s pending = %d, want 3", f.Feature, f.Pending)
		}
		if f.Reference.Total == 0 {
			t.Errorf("%s has empty training reference", f.Feature)
		}
	}
}

func TestDebugScorecardsEndpointAndDecisionsEnvelope(t *testing.T) {
	srv, sel, _ := newHealthServer(t, modelhealth.Config{})
	ctx := context.Background()
	for i := 0; i < 2; i++ { // one cold + one cache hit
		if _, err := sel.Select(ctx, "allgather", trainedFeatures); err != nil {
			t.Fatal(err)
		}
	}

	rec := get(t, srv, "/debug/scorecards")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/scorecards = %d", rec.Code)
	}
	var resp struct {
		Count      int                     `json:"count"`
		Scorecards []modelhealth.Scorecard `json:"scorecards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || len(resp.Scorecards) != 1 {
		t.Fatalf("scorecards = %d, want 1", resp.Count)
	}
	sc := resp.Scorecards[0]
	if !sc.Active || sc.Decisions != 2 || sc.CacheHits != 1 {
		t.Errorf("scorecard = %+v, want active with 2 decisions / 1 hit", sc)
	}
	if sc.DriftStatus != "collecting" {
		t.Errorf("scorecard drift = %q", sc.DriftStatus)
	}

	// The decisions envelope carries the active scorecard alongside the ring.
	var env struct {
		Count     int                    `json:"count"`
		Scorecard *modelhealth.Scorecard `json:"scorecard"`
	}
	if err := json.Unmarshal(get(t, srv, "/debug/decisions").Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Scorecard == nil || env.Scorecard.Generation != sc.Generation {
		t.Fatalf("decisions scorecard = %+v, want generation %d", env.Scorecard, sc.Generation)
	}

	// And each decision now reports its vote margin.
	var dec struct {
		Decisions []selector.Decision `json:"decisions"`
	}
	if err := json.Unmarshal(get(t, srv, "/debug/decisions").Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	for i, d := range dec.Decisions {
		if d.Margin < 0 || d.Margin > 1 {
			t.Errorf("decisions[%d].margin = %v, want [0,1]", i, d.Margin)
		}
	}
}

func TestDebugFlightRecorderEndpoint(t *testing.T) {
	// MarginWarn of 1.5 makes every decision low-margin, so each selection
	// lands in the recorder.
	srv, sel, _ := newHealthServer(t, modelhealth.Config{MarginWarn: 1.5, FlightRecSize: 16})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sel.Select(ctx, "broadcast", trainedFeatures); err != nil {
			t.Fatal(err)
		}
	}
	rec := get(t, srv, "/debug/flightrecorder")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/flightrecorder = %d", rec.Code)
	}
	var resp struct {
		Capacity  int                        `json:"capacity"`
		Occupancy int                        `json:"occupancy"`
		Count     int                        `json:"count"`
		Records   []modelhealth.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Capacity != 16 || resp.Occupancy != 3 || resp.Count != 3 {
		t.Fatalf("recorder = cap %d occ %d count %d, want 16/3/3", resp.Capacity, resp.Occupancy, resp.Count)
	}
	r0 := resp.Records[0]
	if r0.Collective != "broadcast" || len(r0.Reasons) == 0 || r0.Reasons[0] != "low_margin" {
		t.Errorf("record = %+v, want broadcast low_margin", r0)
	}
	if r0.Features["num_nodes"] != 4 {
		t.Errorf("record features = %v, want num_nodes=4", r0.Features)
	}

	// Low-margin decisions surface on /metrics too.
	body := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		`pmlmpi_margin_low_total{collective="broadcast"} 3`,
		`pmlmpi_flightrec_records_total{reason="low_margin"} 3`,
		"pmlmpi_flightrec_occupancy 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSelectResponseGolden pins the full /v1/select response shape — the
// additive telemetry fields (margin, generation) must not silently change
// the contract. Volatile per-request fields are stripped before comparison.
func TestSelectResponseGolden(t *testing.T) {
	srv, _, _ := newHealthServer(t, modelhealth.Config{})
	body := `{"collective": "allgather", "features": {` +
		`"num_nodes": 4, "ppn": 8, "log2_msg_size": 10, "max_clock_ghz": 2.6, ` +
		`"l3_cache_mib": 32, "mem_bw_gbs": 180, "core_count": 32, "thread_count": 64, ` +
		`"sockets": 2, "numa_nodes": 4, "pcie_lanes": 64, "pcie_gen": 4, ` +
		`"link_speed_gbps": 100, "link_width": 4}}`
	rec := post(t, srv, "/v1/select", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/select = %d: %s", rec.Code, rec.Body.String())
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, volatile := range []string{"time", "latency_ns", "request_id"} {
		if _, ok := got[volatile]; !ok {
			t.Errorf("response missing volatile field %q", volatile)
		}
		delete(got, volatile)
	}
	var want map[string]any
	if err := json.Unmarshal([]byte(selectGolden), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.Marshal(got)
		t.Fatalf("/v1/select response drifted from golden:\n got %s\nwant %s", gotJSON, selectGolden)
	}
}

const selectGolden = `{"algorithm":"neighbor_exchange","class":3,"collective":"allgather","features":{"core_count":32,"l3_cache_mib":32,"link_speed_gbps":100,"link_width":4,"log2_msg_size":10,"max_clock_ghz":2.6,"mem_bw_gbs":180,"num_nodes":4,"numa_nodes":4,"pcie_gen":4,"pcie_lanes":64,"ppn":8,"sockets":2,"thread_count":64},"generation":1,"low_margin":true,"margin":0.13820770930413884,"probs":[0.31368802345558655,0.20816622623319192,0.02625001755149609,0.4518957327597254],"votes":[1,0,0,3]}`
