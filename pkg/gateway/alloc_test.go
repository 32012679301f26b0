package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// cannedReplica answers /v1/select/batch (and /v1/select) the way a real
// replica spells its reply, from text rendered in advance, so the guard below counts the
// gateway's allocations and a constant handful of the replica's.
func cannedReplica(t testing.TB, id string, maxItems int) *httptest.Server {
	t.Helper()
	decision := func(n int) string {
		return fmt.Sprintf(`{"time":"2026-01-02T03:04:05.000000006Z","collective":"allgather",`+
			`"features":{"core_count":32,"l3_cache_mib":32,"link_speed_gbps":100,"link_width":4,"log2_msg_size":%d,`+
			`"max_clock_ghz":2.6,"mem_bw_gbs":180,"num_nodes":16,"numa_nodes":4,"pcie_gen":4,"pcie_lanes":64,"ppn":8,`+
			`"sockets":2,"thread_count":64},"algorithm":"ring","class":1,"probs":[0.1,0.7,0.2],"votes":[10,70,20],`+
			`"margin":0.5,"latency_ns":%d,"generation":1,"cached":true}`, n, 200+n)
	}
	single := []byte(decision(1) + "\n")
	batches := make([][]byte, maxItems+1)
	var results bytes.Buffer
	for n := 1; n <= maxItems; n++ {
		if n > 1 {
			results.WriteByte(',')
		}
		fmt.Fprintf(&results, `{"decision":%s}`, decision(n))
		batches[n] = []byte(fmt.Sprintf(`{"count":%d,"errors":0,"results":[%s]}`+"\n", n, results.Bytes()))
	}
	body := new(bytes.Buffer) // the guard sends one request at a time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body.Reset()
		io.Copy(body, r.Body)
		reply := single
		if r.URL.Path == "/v1/select/batch" {
			reply = batches[bytes.Count(body.Bytes(), []byte(`"collective"`))]
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.Write(reply)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// cannedBatch is a canonical 14-feature batch body of n items whose owners
// spread over the replicas.
func cannedBatch(n int) []byte {
	var body bytes.Buffer
	body.WriteString(`{"requests":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"collective":"allgather","features":{"log2_msg_size":%d,"ppn":8,"num_nodes":%d,`+
			`"max_clock_ghz":2.6,"l3_cache_mib":32,"mem_bw_gbs":180,"core_count":32,"thread_count":64,"sockets":2,`+
			`"numa_nodes":4,"pcie_lanes":64,"pcie_gen":4,"link_speed_gbps":100,"link_width":4}}`, 4+i, 2+i)
	}
	body.WriteString(`]}`)
	return body.Bytes()
}

type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

func newCannedGateway(t testing.TB, items int) *Gateway {
	t.Helper()
	g, err := New(obs.NewForTest(), Config{Replicas: []ReplicaSpec{
		{ID: "r0", URL: cannedReplica(t, "r0", items).URL},
		{ID: "r1", URL: cannedReplica(t, "r1", items).URL},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

// maxAllocsPerGatewayBatchItem is the measured count (17.8 per item: 285
// per call, of which two proxied HTTP exchanges and their canned handlers
// are about 190, decoding sixteen 14-feature items into maps 74, the
// request edge (status recorder, minted request ID and its context) a
// handful, and the split and merge themselves next to nothing) plus a
// little headroom. The
// reflective split and merge this path replaced read 58.3 (933 per call) on
// the same test: any of it creeping back lands far above the budget.
const maxAllocsPerGatewayBatchItem = 20

// TestGatewayBatchAllocsPerItem bounds allocations per item of a 16-item
// batch through Gateway.ServeHTTP, split over two replicas and merged.
func TestGatewayBatchAllocsPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const items = 16
	g := newCannedGateway(t, items)
	body := cannedBatch(items)
	w := &discardWriter{h: make(http.Header)}
	perBatch := testing.AllocsPerRun(200, func() {
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			t.Fatalf("batch status %d", w.code)
		}
	})
	for _, info := range g.Snapshot() {
		if info.Requests == 0 || info.Errors != 0 {
			t.Fatalf("replica %s: requests=%d errors=%d, want the batch split over both and no errors", info.ID, info.Requests, info.Errors)
		}
	}
	perItem := perBatch / items
	t.Logf("%.1f allocations per gateway batch item (%.0f per %d-item call)", perItem, perBatch, items)
	if perItem > maxAllocsPerGatewayBatchItem {
		t.Errorf("gateway batch item costs %.1f allocations through the handler, budget %d", perItem, maxAllocsPerGatewayBatchItem)
	}
}

// BenchmarkGatewayBatch16 is the gateway_mixed batch call in-process: one
// 16-item batch through ServeHTTP, split over two canned replicas, merged.
func BenchmarkGatewayBatch16(b *testing.B) {
	const items = 16
	g := newCannedGateway(b, items)
	body := cannedBatch(items)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("batch status %d", w.code)
		}
	}
}

// BenchmarkScanBatchReply is the reply half alone: find the eight result
// spans of one sub-batch reply.
func BenchmarkScanBatchReply(b *testing.B) {
	ts := cannedReplica(b, "r0", 8)
	resp, err := http.Post(ts.URL+"/v1/select/batch", "application/json", bytes.NewReader(cannedBatch(8)))
	if err != nil {
		b.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	spans := make([]selector.ResultSpan, 0, 8)
	b.SetBytes(int64(len(reply)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if spans, ok = selector.ScanBatchReply(reply, 0, spans[:0]); !ok || len(spans) != 8 {
			b.Fatalf("ScanBatchReply: ok=%v, %d spans", ok, len(spans))
		}
	}
}

// BenchmarkGatewaySelect is the gateway_mixed single call in-process: one
// select through ServeHTTP, proxied to a canned replica.
func BenchmarkGatewaySelect(b *testing.B) {
	g := newCannedGateway(b, 1)
	body := cannedBatch(1)
	body = body[len(`{"requests":[`) : len(body)-len(`]}`)]
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("select status %d", w.code)
		}
	}
}
