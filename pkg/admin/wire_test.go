package admin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// batchItemResponse and batchResponse are the /v1/select/batch reply as the
// reflective encoder rendered it before the handler got an append-style one.
// They stay here as the reference the hand-written encoder is held to, and
// as the shape tests decode replies into.
type batchItemResponse struct {
	Decision *selector.Decision `json:"decision,omitempty"`
	Error    string             `json:"error,omitempty"`
}

type batchResponse struct {
	Count   int                 `json:"count"`
	Errors  int                 `json:"errors"`
	Results []batchItemResponse `json:"results"`
}

// reflectiveBatchReply renders results the way the old handler did:
// json.Encoder with two-space indentation over batchResponse.
func reflectiveBatchReply(t *testing.T, results []selector.BatchResult) []byte {
	t.Helper()
	resp := batchResponse{Count: len(results), Results: make([]batchItemResponse, len(results))}
	for i, res := range results {
		if res.Err != nil {
			resp.Errors++
			resp.Results[i] = batchItemResponse{Error: res.Err.Error()}
			continue
		}
		resp.Results[i] = batchItemResponse{Decision: res.Decision}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchReplyEqualsCompactedReflectiveReply: over a seeded stream with
// cold, cached and failing items, the reply is the previous document minus
// its indentation, byte for byte.
func TestBatchReplyEqualsCompactedReflectiveReply(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	sel := selector.New(b, obs.NewForTest(), selector.Config{
		Cache: cache.New(cache.Config{MaxEntries: 4096}, obs.NewRegistry()),
	})
	points := synth.Points(1, 256)
	reqs := make([]selector.BatchRequest, 0, len(points)+3)
	for i, pt := range points {
		reqs = append(reqs, selector.BatchRequest{Collective: []string{"allgather", "alltoall"}[i%2], Features: pt})
	}
	reqs = append(reqs,
		selector.BatchRequest{Collective: "no \"such\" <collective>", Features: points[0]},
		selector.BatchRequest{Collective: "alltoall", Features: map[string]float64{"ppn": 4}},
		selector.BatchRequest{})
	for pass, name := range []string{"cold", "cached"} {
		results := sel.SelectBatch(context.Background(), reqs)
		if pass == 1 && !results[0].Decision.Cached {
			t.Fatal("second pass was not served from the cache")
		}
		// Shapes SelectBatch never produces but omitempty had an answer for.
		results = append(results, selector.BatchResult{Err: errors.New("")}, selector.BatchResult{})
		var want bytes.Buffer
		if err := json.Compact(&want, reflectiveBatchReply(t, results)); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		got, err := appendBatchResponse(nil, results)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s pass: reply differs from the compacted reflective reply\n got: %.400s\nwant: %.400s", name, got, want.Bytes())
		}
	}

}

// TestSelectRepliesAreOneCompactLine pins the reply framing both select
// endpoints now share: a single line, Content-Length set, decodable.
func TestSelectRepliesAreOneCompactLine(t *testing.T) {
	srv, _, _ := newTestServer(t)
	item := `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	for path, body := range map[string]string{
		"/v1/select":       item,
		"/v1/select/batch": `{"requests":[` + item + `,` + item + `]}`,
	} {
		rec := post(t, srv, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body.String())
		}
		out := rec.Body.String()
		if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "}\n") || strings.Contains(out, ": ") {
			t.Errorf("%s reply is not one compact line: %q", path, out)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(out)) {
			t.Errorf("%s Content-Length = %q, body is %d bytes", path, got, len(out))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q", path, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s reply is not valid JSON: %q", path, out)
		}
	}
}

// TestSelectBodyLimits: the size caps survive the move off json.Decoder.
func TestSelectBodyLimits(t *testing.T) {
	srv, _, _ := newTestServer(t)
	pad := strings.Repeat(" ", 1<<20)
	rec := post(t, srv, "/v1/select", `{"collective":"alltoall",`+pad+`"features":{}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Errorf("oversized /v1/select body = %d %s, want 400 request body too large", rec.Code, rec.Body.String())
	}
	rec = post(t, srv, "/v1/select/batch", `{"requests":[`+strings.Repeat(pad, 8)+`]}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Errorf("oversized /v1/select/batch body = %d %.80s, want 400 request body too large", rec.Code, rec.Body.String())
	}
}

// TestWireBufPoolDropsOversizedBuffers: one maximal batch must not pin
// megabytes in the pool for the life of the process.
func TestWireBufPoolDropsOversizedBuffers(t *testing.T) {
	big := new(wireBuf)
	big.out = make([]byte, 0, maxPooledWireBuf+1)
	putWireBuf(big)
	for i := 0; i < 64; i++ { // a pooled entry would come back within a few Gets
		if b := getWireBuf(); b == big {
			t.Fatal("oversized buffer went back into the pool")
		}
	}
}

// TestAccessLogOnlyAtDebugAndCountersAlways: the per-request access record
// is debug-only (and costs nothing below that level), while the request
// counter counts every status — 200s through the series bound at
// registration, anything else through the labelled lookup.
func TestAccessLogOnlyAtDebugAndCountersAlways(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	o := obs.New(&log, obs.LevelInfo)
	srv := New(selector.New(b, o, selector.Config{}), o, Config{})

	get(t, srv, "/healthz")
	if log.Len() != 0 {
		t.Errorf("info level wrote an access record: %s", log.String())
	}
	o.Logger.SetLevel(obs.LevelDebug)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "req-42")
	srv.ServeHTTP(httptest.NewRecorder(), req)
	post(t, srv, "/v1/select", "{nope")

	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v: %q", err, line)
		}
		if rec["msg"] == "http request" {
			recs = append(recs, rec)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("debug level wrote %d access records, want 2: %s", len(recs), log.String())
	}
	if r := recs[0]; r["request_id"] != "req-42" || r["method"] != "GET" || r["path"] != "/healthz" || r["code"] != float64(200) {
		t.Errorf("access record = %v", r)
	}
	if r := recs[1]; r["path"] != "/v1/select" || r["code"] != float64(400) {
		t.Errorf("access record for the rejected select = %v", r)
	}
	if got := srv.httpRequests.Value("/healthz", "200"); got != 2 {
		t.Errorf(`pmlmpi_http_requests_total{path="/healthz",code="200"} = %v, want 2`, got)
	}
	if got := srv.httpRequests.Value("/v1/select", "400"); got != 1 {
		t.Errorf(`pmlmpi_http_requests_total{path="/v1/select",code="400"} = %v, want 1`, got)
	}
	if got := srv.httpLatency.Count("/healthz"); got != 2 {
		t.Errorf("request-duration observations for /healthz = %d, want 2", got)
	}
}
