package admin

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
)

// The derived features (ranks_odd, ranks_pow2) are computed from num_nodes
// and ppn by the server and never taken from a client: every route that
// accepts features refuses them with 400 naming the feature, before any
// selection or ingestion.

func TestSelectRefusesDerivedFeature(t *testing.T) {
	srv, sel, _ := newTestServer(t)
	rec := post(t, srv, "/v1/select",
		`{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96,"ranks_odd":1}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "ranks_odd") {
		t.Fatalf("/v1/select with ranks_odd = %d %s, want 400 naming it", rec.Code, rec.Body.String())
	}
	if n := len(sel.Recent(8)); n != 0 {
		t.Errorf("a refused request made %d decisions", n)
	}
}

func TestSelectBatchRefusesDerivedFeature(t *testing.T) {
	srv, sel, _ := newTestServer(t)
	good := `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	bad := `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96,"ranks_pow2":0}}`
	rec := post(t, srv, "/v1/select/batch", `{"requests":[`+good+`,`+bad+`]}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "ranks_pow2") ||
		!strings.Contains(rec.Body.String(), "requests[1]") {
		t.Fatalf("/v1/select/batch with ranks_pow2 = %d %s, want 400 naming it and its item", rec.Code, rec.Body.String())
	}
	if n := len(sel.Recent(8)); n != 0 {
		t.Errorf("a refused batch made %d decisions", n)
	}
}

func TestFeedbackRefusesDerivedFeature(t *testing.T) {
	srv := newFeedbackServer(t)
	rec := oracleFeedback(t, 3, 5, 12)
	rec.Features["ranks_odd"] = 1
	body, err := json.Marshal(map[string]any{"records": []dataset.Record{oracleFeedback(t, 2, 2, 8), rec}})
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, srv, "/v1/feedback", body)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "ranks_odd") {
		t.Fatalf("/v1/feedback with ranks_odd = %d %s, want 400 naming it", w.Code, w.Body.String())
	}
	// Nothing of the refused body was ingested: its valid record is new.
	good, _ := json.Marshal(oracleFeedback(t, 2, 2, 8))
	w = postJSON(t, srv, "/v1/feedback", good)
	var resp feedbackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Accepted != 1 {
		t.Fatalf("valid record after a refused body = %d %s, want it accepted", w.Code, w.Body.String())
	}
}
