package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// fakeReplica is a minimal replica backend: /healthz, /v1/select, and
// /v1/select/batch that echo the replica's identity, plus counters for
// what reached it.
type fakeReplica struct {
	id string
	ts *httptest.Server

	mu      sync.Mutex
	selects int
	batches int
	items   []string // collectives received, in order
}

func newFakeReplica(t *testing.T, id string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","generation":{"id":1,"hash":"hash-%s"}}`, id)
	})
	mux.HandleFunc("/v1/select", func(w http.ResponseWriter, r *http.Request) {
		var req selector.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.selects++
		f.items = append(f.items, req.Collective)
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"collective":%q,"algorithm":"echo","served_by":%q}`, req.Collective, id)
	})
	mux.HandleFunc("/v1/select/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Requests []selector.BatchRequest `json:"requests"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.batches++
		results := make([]map[string]any, len(req.Requests))
		for i, item := range req.Requests {
			f.items = append(f.items, item.Collective)
			results[i] = map[string]any{
				"decision": map[string]any{"collective": item.Collective, "served_by": id},
			}
		}
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"count": len(results), "errors": 0, "results": results,
		})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newTestGateway(t *testing.T, fakes []*fakeReplica) *Gateway {
	t.Helper()
	specs := make([]ReplicaSpec, len(fakes))
	for i, f := range fakes {
		specs[i] = ReplicaSpec{ID: f.id, URL: f.ts.URL}
	}
	g, err := New(obs.NewForTest(), Config{Replicas: specs, MaxAttempts: len(fakes)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func testFeatures(i int) map[string]float64 {
	return map[string]float64{
		"msg_size_bytes": float64(int64(64) << (i % 16)),
		"comm_size":      float64(2 + i%62),
		"node_count":     float64(1 + i%16),
	}
}

// TestOwnerStableAcrossRestartsAndConfigOrder pins the satellite
// requirement: the replica a request routes to depends only on the
// request and the replica IDs — not on process lifetime or the order
// replicas appear in the config.
func TestOwnerStableAcrossRestartsAndConfigOrder(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	build := func(perm []int) *Gateway {
		specs := make([]ReplicaSpec, len(ids))
		for i, pi := range perm {
			specs[i] = ReplicaSpec{ID: ids[pi], URL: "http://unused.invalid"}
		}
		g, err := New(obs.NewForTest(), Config{Replicas: specs})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return g
	}
	identity := make([]int, len(ids))
	for i := range identity {
		identity[i] = i
	}
	g1 := build(identity)
	perm := rand.New(rand.NewSource(7)).Perm(len(ids))
	g2 := build(perm) // "restarted" gateway, shuffled config order

	for i := 0; i < 500; i++ {
		feats := testFeatures(i)
		o1 := g1.Owner("allreduce", feats)
		o2 := g2.Owner("allreduce", feats)
		if o1 != o2 {
			t.Fatalf("request %d owner changed across restart: %s vs %s", i, o1, o2)
		}
	}
	// Quantization folds near-identical floats onto the same owner.
	a := map[string]float64{"msg_size_bytes": 4096, "comm_size": 48}
	b := map[string]float64{"msg_size_bytes": 4096.0000004, "comm_size": 48.0000004}
	if g1.Owner("allreduce", a) != g1.Owner("allreduce", b) {
		t.Fatal("quantization did not fold near-identical features onto one owner")
	}
}

// TestOwnerDistributionUniform checks rendezvous balance: across 8
// replicas and a deterministic request population, every replica owns
// within 10% of its fair share.
func TestOwnerDistributionUniform(t *testing.T) {
	specs := make([]ReplicaSpec, 8)
	for i := range specs {
		specs[i] = ReplicaSpec{ID: fmt.Sprintf("replica-%d", i), URL: "http://unused.invalid"}
	}
	g, err := New(obs.NewForTest(), Config{Replicas: specs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 20000
	counts := make(map[string]int)
	collectives := []string{"allreduce", "bcast", "allgather", "reduce_scatter"}
	for i := 0; i < n; i++ {
		feats := map[string]float64{
			"msg_size_bytes": float64(8 + i*13),
			"comm_size":      float64(2 + i%126),
		}
		counts[g.Owner(collectives[i%len(collectives)], feats)]++
	}
	fair := float64(n) / float64(len(specs))
	for id, c := range counts {
		dev := (float64(c) - fair) / fair
		if dev > 0.10 || dev < -0.10 {
			t.Errorf("replica %s owns %d keys, %.1f%% off the fair share %.0f",
				id, c, dev*100, fair)
		}
	}
	if len(counts) != len(specs) {
		t.Fatalf("only %d of %d replicas own any keys", len(counts), len(specs))
	}
}

func postSelect(t *testing.T, url, collective string, feats map[string]float64) (*http.Response, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"collective": collective, "features": feats})
	resp, err := http.Post(url+"/v1/select", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/select: %v", err)
	}
	defer resp.Body.Close()
	var parsed map[string]any
	json.NewDecoder(resp.Body).Decode(&parsed)
	return resp, parsed
}

// TestFailoverReroutesWithoutErrors kills one replica and asserts its
// keys re-route to live replicas with zero client-visible errors, while
// keys owned by surviving replicas stay where they were.
func TestFailoverReroutesWithoutErrors(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	g := newTestGateway(t, fakes)
	front := httptest.NewServer(g)
	defer front.Close()

	// Partition a request population by current owner.
	byOwner := make(map[string][]map[string]float64)
	for i := 0; i < 60; i++ {
		feats := testFeatures(i)
		byOwner[g.Owner("allreduce", feats)] = append(byOwner[g.Owner("allreduce", feats)], feats)
	}
	victim := fakes[0]
	if len(byOwner[victim.id]) == 0 {
		t.Fatalf("no requests landed on %s; owners: %v", victim.id, byOwner)
	}
	survivorOwned := byOwner[fakes[1].id]

	victim.ts.Close() // kill it: connections now refuse

	// Every key the victim owned must re-route and succeed.
	for _, feats := range byOwner[victim.id] {
		resp, parsed := postSelect(t, front.URL, "allreduce", feats)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("victim-owned key got HTTP %d: %v", resp.StatusCode, parsed)
		}
		if served := parsed["served_by"]; served == victim.id {
			t.Fatalf("request claims to be served by the killed replica %s", victim.id)
		}
		if resp.Header.Get("X-Pmlmpi-Replica") == victim.id {
			t.Fatal("gateway reports routing to the killed replica")
		}
	}
	// Keys owned by survivors stay put — rendezvous minimal disruption.
	for _, feats := range survivorOwned {
		resp, parsed := postSelect(t, front.URL, "allreduce", feats)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor-owned key got HTTP %d", resp.StatusCode)
		}
		if parsed["served_by"] != fakes[1].id {
			t.Fatalf("survivor-owned key moved from %s to %v", fakes[1].id, parsed["served_by"])
		}
	}
	// The gateway learned: the victim is marked down and its ledger shows
	// the failures.
	for _, info := range g.Snapshot() {
		if info.ID == victim.id {
			if info.Healthy {
				t.Fatal("killed replica still marked healthy")
			}
			if info.Errors == 0 {
				t.Fatal("killed replica shows no errors in the ledger")
			}
		}
	}
}

// TestBatchSplitsByPartitionAndReassembles sends one batch whose items
// are owned by different replicas and checks the positional envelope
// comes back intact, annotated with the serving replica.
func TestBatchSplitsByPartitionAndReassembles(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	g := newTestGateway(t, fakes)
	front := httptest.NewServer(g)
	defer front.Close()

	var reqs []map[string]any
	var owners []string
	for i := 0; i < 24; i++ {
		feats := testFeatures(i)
		reqs = append(reqs, map[string]any{"collective": "bcast", "features": feats})
		owners = append(owners, g.Owner("bcast", feats))
	}
	body, _ := json.Marshal(map[string]any{"requests": reqs})
	resp, err := http.Post(front.URL+"/v1/select/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	var parsed struct {
		Count   int `json:"count"`
		Errors  int `json:"errors"`
		Results []struct {
			Decision map[string]any `json:"decision"`
			Error    string         `json:"error"`
			Replica  string         `json:"replica"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if parsed.Count != len(reqs) || parsed.Errors != 0 {
		t.Fatalf("count=%d errors=%d, want %d/0", parsed.Count, parsed.Errors, len(reqs))
	}
	distinct := make(map[string]bool)
	for i, res := range parsed.Results {
		if res.Error != "" {
			t.Fatalf("item %d errored: %s", i, res.Error)
		}
		if res.Replica != owners[i] {
			t.Fatalf("item %d served by %s, owner is %s", i, res.Replica, owners[i])
		}
		if res.Decision["served_by"] != owners[i] {
			t.Fatalf("item %d decision from %v, owner is %s", i, res.Decision["served_by"], owners[i])
		}
		distinct[res.Replica] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("batch never split: all %d items went to one replica", len(reqs))
	}
	// Sub-batch accounting: each replica saw exactly one batch call.
	for _, f := range fakes {
		f.mu.Lock()
		batches, items := f.batches, len(f.items)
		f.mu.Unlock()
		if items > 0 && batches != 1 {
			t.Fatalf("replica %s saw %d batch calls for %d items, want 1", f.id, batches, items)
		}
	}
}

func TestHealthzReportsRoleAndDegrades(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	g := newTestGateway(t, fakes)
	front := httptest.NewServer(g)
	defer front.Close()

	get := func() (int, map[string]any) {
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var h map[string]any
		json.NewDecoder(resp.Body).Decode(&h)
		return resp.StatusCode, h
	}
	code, h := get()
	if code != http.StatusOK || h["status"] != "ok" || h["role"] != "gateway" {
		t.Fatalf("healthz = %d %v, want 200 ok/gateway", code, h)
	}

	// All replicas die; an active sweep notices; health degrades to 503.
	for _, f := range fakes {
		f.ts.Close()
	}
	g.CheckNow(context.Background())
	code, h = get()
	if code != http.StatusServiceUnavailable || h["status"] != "unavailable" {
		t.Fatalf("healthz after fleet death = %d %v, want 503 unavailable", code, h)
	}
	if h["role"] != "gateway" {
		t.Fatalf("role = %v, want gateway even when unavailable", h["role"])
	}
}

// TestActiveProbeRevivesRecoveredReplica: passive failure marks a
// replica down; only a successful active probe (or proxy) brings it
// back.
func TestActiveProbeRevivesRecoveredReplica(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	g := newTestGateway(t, fakes)
	g.CheckNow(context.Background())
	for _, info := range g.Snapshot() {
		if !info.Healthy {
			t.Fatalf("replica %s unhealthy after clean probe", info.ID)
		}
		if info.ActiveHash != "hash-"+info.ID {
			t.Fatalf("probe did not record active hash: %+v", info)
		}
	}
	g.markDown(g.replicas[0], "synthetic failure")
	if g.Snapshot()[0].Healthy {
		t.Fatal("markDown did not stick")
	}
	g.CheckNow(context.Background())
	if !g.Snapshot()[0].Healthy {
		t.Fatal("active probe did not revive the replica")
	}
}

// stalledReplica accepts select calls and holds them until the caller goes
// away, announcing each arrival: a healthy replica that is merely slower
// than its client's patience.
func stalledReplica(t *testing.T, id string, arrived chan<- string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	stall := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server watches for a hang-up once the body is read
		arrived <- id
		<-r.Context().Done()
	}
	mux.HandleFunc("/v1/select", stall)
	mux.HandleFunc("/v1/select/batch", stall)
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// TestClientHangUpDoesNotMarkReplicasDown: a caller that gives up while a
// replica is still working says nothing about the replica. Before the fix
// the canceled attempt marked the owner down, the retry loop walked the
// failover order failing instantly for the same reason, and one impatient
// client left the whole fleet unhealthy and the gateway's /healthz at 503
// until the next active probe.
func TestClientHangUpDoesNotMarkReplicasDown(t *testing.T) {
	arrived := make(chan string, 8) // room for every attempt the broken loop would make
	fakes := []*fakeReplica{stalledReplica(t, "a", arrived), stalledReplica(t, "b", arrived)}
	g := newTestGateway(t, fakes)

	single, _ := json.Marshal(map[string]any{"collective": "allreduce", "features": testFeatures(1)})
	var items []map[string]any
	for i := 0; i < 8; i++ {
		items = append(items, map[string]any{"collective": "allreduce", "features": testFeatures(i)})
	}
	batch, _ := json.Marshal(map[string]any{"requests": items})

	for path, body := range map[string][]byte{"/v1/select": single, "/v1/select/batch": batch} {
		ctx, hangUp := context.WithCancel(context.Background())
		done := make(chan int)
		go func() {
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
			done <- rec.Code
		}()
		<-arrived // the first attempt is in a replica's hands
		hangUp()
		if code := <-done; code != statusClientClosedRequest {
			t.Errorf("%s: gateway recorded status %d for a caller that hung up, want %d", path, code, statusClientClosedRequest)
		}
		select {
		case id := <-arrived:
			t.Errorf("%s: gateway tried replica %s after its caller hung up", path, id)
		default:
		}
		for _, info := range g.Snapshot() {
			if !info.Healthy || info.Errors != 0 {
				t.Errorf("%s: replica %s healthy=%v errors=%d after a client hang-up, want healthy and 0",
					path, info.ID, info.Healthy, info.Errors)
			}
			if n := g.retries.Value(info.ID); n != 0 {
				t.Errorf("%s: pmlmpi_gw_retries_total{replica=%q} = %v after a client hang-up, want 0", path, info.ID, n)
			}
		}
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: gateway /healthz = %d after a client hang-up, want 200: %s", path, rec.Code, rec.Body)
		}
	}
}

// TestProxyReusesConnectionsUnderConcurrency: with more than two callers
// per replica, net/http's default transport (two idle connections per host)
// dials a fresh connection for most requests and closes it afterwards. The
// gateway's own transport keeps one per caller, so the number of
// connections a replica ever sees follows the caller count, not the request
// count.
//
// The replica holds the first requests until every caller has one in
// flight. Otherwise the callers race an empty pool at startup: a caller
// waiting on its dial is handed a connection another caller just released,
// its dial still completes into the pool, and it can dial again on its next
// request while the pool is drained. Those wasted dials, not reuse, pushed
// the count past the limit on a loaded machine. With the barrier each
// caller dials exactly once.
func TestProxyReusesConnectionsUnderConcurrency(t *testing.T) {
	const callers, perCaller = 32, 40
	var opened, arrived atomic.Int64
	allIn := make(chan struct{})
	f := &fakeReplica{id: "a"}
	f.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if arrived.Add(1) == callers {
			close(allIn)
		}
		select {
		case <-allIn:
		case <-time.After(10 * time.Second): // a caller failed; let the rest finish
		}
		fmt.Fprint(w, `{"algorithm":"echo"}`)
	}))
	f.ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	f.ts.Start()
	t.Cleanup(f.ts.Close)
	g := newTestGateway(t, []*fakeReplica{f})

	body, _ := json.Marshal(map[string]any{"collective": "allreduce", "features": testFeatures(3)})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("select through the gateway: HTTP %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The transport also drops a connection whose request write has not
	// reported back within 50ms of the reply (maxWriteWaitBeforeConnReuse):
	// allow each caller one such redial, and no more. (Without reuse this
	// reads in the hundreds: nearly one connection per request.)
	if n := opened.Load(); n > 2*callers {
		t.Errorf("replica saw %d connections for %d requests from %d callers, want at most %d",
			n, callers*perCaller, callers, 2*callers)
	}
}

// TestBatchRetriesAReplyItCannotSplice: a 200 whose body is not a batch
// reply of the right length (here: cut short, then one result too few) is a
// replica failure — the sub-batch's items re-route and the client sees no
// error — but not a reason to mark the replica down.
func TestBatchRetriesAReplyItCannotSplice(t *testing.T) {
	for _, reply := range []string{
		`{"count":24,"errors":0,"results":[{"decision":{"served_by":"broken"}},`,
		`{"count":1,"errors":0,"results":[{"decision":{"served_by":"broken"}}]}`,
	} {
		broken := &fakeReplica{id: "broken"}
		broken.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			fmt.Fprint(w, reply)
		}))
		t.Cleanup(broken.ts.Close)
		good := newFakeReplica(t, "good")
		g := newTestGateway(t, []*fakeReplica{broken, good})

		var reqs []map[string]any
		for i := 0; i < 24; i++ {
			reqs = append(reqs, map[string]any{"collective": "bcast", "features": testFeatures(i)})
		}
		body, _ := json.Marshal(map[string]any{"requests": reqs})
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(body)))
		var parsed struct {
			Count, Errors int
			Results       []struct{ Replica, Error string }
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("batch reply: HTTP %d, %v: %s", rec.Code, err, rec.Body)
		}
		if parsed.Count != len(reqs) || parsed.Errors != 0 {
			t.Fatalf("count=%d errors=%d, want %d/0: %s", parsed.Count, parsed.Errors, len(reqs), rec.Body)
		}
		for i, res := range parsed.Results {
			if res.Replica != "good" {
				t.Fatalf("item %d answered by %q, want the replica whose reply could be read", i, res.Replica)
			}
		}
		if n := g.retries.Value("broken"); n != 1 {
			t.Errorf("pmlmpi_gw_retries_total{replica=\"broken\"} = %v, want 1", n)
		}
		if info := g.Snapshot()[0]; !info.Healthy {
			t.Errorf("replica with an unreadable reply was marked down: %+v", info)
		}
	}
}

// TestOversizedReplyIsAReplicaFailure: a replica reply one byte over
// maxReplyBytes fails the attempt with an error naming the limit, as a
// transport error would; the gateway never passes on or merges the part it
// read. The single reply is cut inside a string, the batch reply only in
// its trailing whitespace, so a truncating read would answer 200 to both.
func TestOversizedReplyIsAReplicaFailure(t *testing.T) {
	pad := func(head, tail string) []byte {
		return append(append([]byte(head), bytes.Repeat([]byte{' '}, maxReplyBytes+1-len(head)-len(tail))...), tail...)
	}
	single := pad(`{"collective":"bcast","algorithm":"`, `"}`)
	batch := pad(`{"count":1,"errors":0,"results":[{"decision":{"collective":"bcast"}}]}`, "\n")
	big := &fakeReplica{id: "big"}
	big.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/v1/select/batch" {
			w.Write(batch)
		} else {
			w.Write(single)
		}
	}))
	t.Cleanup(big.ts.Close)
	g := newTestGateway(t, []*fakeReplica{big})
	const limit = "reply exceeds the limit of 16777216 bytes"

	body, _ := json.Marshal(map[string]any{"collective": "bcast", "features": testFeatures(0)})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
	if rec.Code != http.StatusBadGateway || !bytes.Contains(rec.Body.Bytes(), []byte(limit)) {
		t.Errorf("single select: HTTP %d, %.200s; want 502 naming the limit", rec.Code, rec.Body)
	}

	body, _ = json.Marshal(map[string]any{"requests": []any{json.RawMessage(body)}})
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(body)))
	var parsed struct {
		Errors  int
		Results []struct{ Error string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("batch reply: HTTP %d, %v: %.200s", rec.Code, err, rec.Body)
	}
	if parsed.Errors != 1 || len(parsed.Results) != 1 || !bytes.Contains([]byte(parsed.Results[0].Error), []byte(limit)) {
		t.Errorf("batch: %.300s; want its one item failed naming the limit", rec.Body)
	}
	if info := g.Snapshot()[0]; info.Healthy {
		t.Errorf("replica with an oversized reply is still marked healthy: %+v", info)
	}
}
