package admin

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/retrain"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// newFeedbackServer wires the full self-tuning admin surface: registry,
// shadow, observatory, feedback store, and an idle retrain controller.
func newFeedbackServer(t *testing.T) *Server {
	t.Helper()
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	shadow := registry.NewShadow(o, registry.ShadowConfig{})
	r := registry.New(o, registry.Config{Shadow: shadow})
	g, err := r.Load(trainedFixture)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if _, err := r.Promote(g.ID()); err != nil {
		t.Fatalf("promote: %v", err)
	}
	health := modelhealth.New(o.Registry, modelhealth.Config{})
	sel := selector.NewFromSource(r, o, selector.Config{
		Cache:  cache.New(cache.Config{}, o.Registry),
		Health: health,
	})
	store, err := feedback.NewStore(o.Registry, feedback.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("feedback store: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	ctrl, err := retrain.New(o, retrain.Config{},
		retrain.Deps{Store: store, Registry: r, Shadow: shadow, Health: health})
	if err != nil {
		t.Fatalf("retrain controller: %v", err)
	}
	return New(sel, o, Config{
		Registry: r, Health: health, Feedback: store, Retrain: ctrl,
	})
}

// postJSON sends a POST with a JSON body and returns the recorder.
func postJSON(t *testing.T, srv http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// oracleFeedback builds an oracle-labeled feedback record for one point of
// the default system's workload space.
func oracleFeedback(t *testing.T, nodes, ppn, lm float64) dataset.Record {
	t.Helper()
	f := perfmodel.DefaultSystems[0].Features(nodes, ppn, lm)
	costs, err := perfmodel.Costs("broadcast", f)
	if err != nil {
		t.Fatalf("oracle costs: %v", err)
	}
	algos := perfmodel.Table()["broadcast"]
	lat := make(map[string]float64, len(algos))
	for i, name := range algos {
		lat[name] = costs[i] * 1e6
	}
	return dataset.Record{Collective: "broadcast", Features: f, LatenciesUS: lat}
}

func TestFeedbackEndpointSingleRecordLifecycle(t *testing.T) {
	srv := newFeedbackServer(t)
	rec := oracleFeedback(t, 8, 16, 12)
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}

	w := postJSON(t, srv, "/v1/feedback", body)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/feedback = %d body %s", w.Code, w.Body.String())
	}
	var resp feedbackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Accepted != 1 || resp.Results[0].Outcome != feedback.OutcomeAccepted {
		t.Fatalf("first submit = %+v, want 1 accepted", resp)
	}

	// Bit-exact resubmission dedups — still HTTP 200, outcome inline.
	w = postJSON(t, srv, "/v1/feedback", body)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || resp.Duplicates != 1 {
		t.Fatalf("resubmit = %d %+v, want 200 with 1 duplicate", w.Code, resp)
	}
}

func TestFeedbackEndpointBatchWithQuarantine(t *testing.T) {
	srv := newFeedbackServer(t)
	good := oracleFeedback(t, 4, 8, 10)
	// An implausible winner: the analytically worst algorithm reported as
	// fastest by five orders of magnitude trips the oracle guardrail.
	poisoned := oracleFeedback(t, 16, 16, 14)
	worst, worstLat := "", 0.0
	for name, lat := range poisoned.LatenciesUS {
		if lat > worstLat {
			worst, worstLat = name, lat
		}
	}
	poisoned.LatenciesUS[worst] = 0.001

	body, err := json.Marshal(map[string]any{"records": []dataset.Record{good, poisoned}})
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, srv, "/v1/feedback", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d body %s", w.Code, w.Body.String())
	}
	var resp feedbackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Accepted != 1 || resp.Quarantined != 1 {
		t.Fatalf("batch = %+v, want 1 accepted + 1 quarantined", resp)
	}
	if resp.Results[1].Outcome != feedback.OutcomeQuarantined || resp.Results[1].Error == "" {
		t.Fatalf("poisoned result = %+v, want quarantined with a reason", resp.Results[1])
	}
}

func TestFeedbackEndpointRejectsMalformedEnvelopes(t *testing.T) {
	srv := newFeedbackServer(t)
	for name, body := range map[string]string{
		"not json":      "{",
		"unknown field": `{"collective":"broadcast","features":{"ppn":8},"latency_us":{"a":1},"bogus":1}`,
		"empty object":  `{}`,
	} {
		if w := postJSON(t, srv, "/v1/feedback", []byte(body)); w.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, w.Code)
		}
	}

	// Oversized batches are refused before any record is ingested.
	records := make([]dataset.Record, MaxFeedbackRecords+1)
	base := oracleFeedback(t, 2, 2, 8)
	for i := range records {
		records[i] = base
	}
	body, err := json.Marshal(map[string]any{"records": records})
	if err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, srv, "/v1/feedback", body); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", w.Code)
	}
}

func TestFeedbackEndpointAbsentWithoutStore(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if w := postJSON(t, srv, "/v1/feedback", []byte(`{}`)); w.Code != http.StatusNotFound {
		t.Errorf("/v1/feedback without a store = %d, want 404", w.Code)
	}
	if w := get(t, srv, "/debug/retrain"); w.Code != http.StatusNotFound {
		t.Errorf("/debug/retrain without a controller = %d, want 404", w.Code)
	}
}

func TestDebugRetrainEndpointAndHealthzBlock(t *testing.T) {
	srv := newFeedbackServer(t)

	// Seed a couple of records so the feedback snapshot is non-trivial.
	for i, lm := range []float64{8, 14} {
		nodes := 2 << uint(i)
		rec := oracleFeedback(t, float64(nodes), 8, lm)
		body, _ := json.Marshal(rec)
		if w := postJSON(t, srv, "/v1/feedback", body); w.Code != http.StatusOK {
			t.Fatalf("seed %d = %d", i, w.Code)
		}
	}

	w := get(t, srv, "/debug/retrain")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/retrain = %d", w.Code)
	}
	var rep retrain.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.State != retrain.StateIdle || rep.Cycles != 0 {
		t.Errorf("report = state %q cycles %d, want idle with no cycles", rep.State, rep.Cycles)
	}
	if rep.Feedback.Resident != 2 || rep.Feedback.Accepted != 2 {
		t.Errorf("feedback snapshot = %+v, want 2 resident", rep.Feedback)
	}

	var h Health
	if err := json.Unmarshal(get(t, srv, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Retrain == nil {
		t.Fatal("healthz missing retrain block")
	}
	if h.Retrain.State != retrain.StateIdle || h.Retrain.FeedbackResident != 2 {
		t.Errorf("healthz retrain = %+v", h.Retrain)
	}
}

// TestFeedbackMethodAudit: the route table gives the new surfaces the
// standard 405+Allow treatment.
func TestFeedbackMethodAudit(t *testing.T) {
	srv := newFeedbackServer(t)
	for path, allow := range map[string]string{
		"/v1/feedback":   http.MethodPost,
		"/debug/retrain": http.MethodGet,
	} {
		wrong := http.MethodGet
		if allow == http.MethodGet {
			wrong = http.MethodPost
		}
		req := httptest.NewRequest(wrong, path, bytes.NewReader(nil))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", wrong, path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != allow {
			t.Errorf("%s Allow = %q, want %q", path, got, allow)
		}
	}
}
