package fleete2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// reflectiveGateway is the gateway's batch path as it was before it spliced
// spans — decode the items, marshal a sub-batch per owner, unmarshal each
// reply into structs, stamp the items, marshal the envelope — kept here as
// the reference the splicing gateway is held to. Routing is the gateway's
// own rule (rendezvous order, healthy first, failover order pinned per
// item); sub-batches go out in config order so two runs are comparable.
type reflectiveGateway struct {
	replicas    []*reflectiveReplica
	maxAttempts int
}

type reflectiveReplica struct {
	id, url string
	seed    uint64
	healthy bool
}

type reflectiveItem struct {
	Decision json.RawMessage `json:"decision,omitempty"`
	Error    string          `json:"error,omitempty"`
	Replica  string          `json:"replica,omitempty"`
}

func newReflectiveGateway(specs []gateway.ReplicaSpec, maxAttempts int) *reflectiveGateway {
	g := &reflectiveGateway{maxAttempts: maxAttempts}
	for _, spec := range specs {
		h := fnv.New64a()
		h.Write([]byte(spec.ID))
		g.replicas = append(g.replicas, &reflectiveReplica{
			id: spec.ID, url: spec.URL, seed: selector.Mix64(h.Sum64()), healthy: true,
		})
	}
	return g
}

func (g *reflectiveGateway) rank(key uint64) []*reflectiveReplica {
	order := append([]*reflectiveReplica(nil), g.replicas...)
	healthy := make(map[*reflectiveReplica]bool, len(order))
	for _, rp := range order {
		healthy[rp] = rp.healthy
	}
	sort.Slice(order, func(a, b int) bool {
		if healthy[order[a]] != healthy[order[b]] {
			return healthy[order[a]]
		}
		sa, sb := selector.Mix64(key^order[a].seed), selector.Mix64(key^order[b].seed)
		if sa != sb {
			return sa > sb
		}
		return order[a].id < order[b].id
	})
	return order
}

// try is one proxy attempt: transport errors and 5xx mark the replica down.
func (g *reflectiveGateway) try(rp *reflectiveReplica, body []byte) (status int, reply []byte, err error) {
	resp, err := http.Post(rp.url+"/v1/select/batch", "application/json", bytes.NewReader(body))
	if err == nil {
		defer resp.Body.Close()
		reply, err = io.ReadAll(resp.Body)
	}
	if err == nil && resp.StatusCode >= 500 {
		err = fmt.Errorf("replica %s: HTTP %d", rp.id, resp.StatusCode)
	}
	rp.healthy = err == nil
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, reply, nil
}

func (g *reflectiveGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	reqs, err := selector.DecodeBatch(body)
	if err != nil || len(reqs) == 0 {
		http.Error(w, "the reference handles well-formed batches only", http.StatusBadRequest)
		return
	}
	type pendingItem struct {
		idx      int
		req      selector.BatchRequest
		order    []*reflectiveReplica
		attempts int
	}
	results := make([]reflectiveItem, len(reqs))
	queue := make([]pendingItem, 0, len(reqs))
	for i, item := range reqs {
		queue = append(queue, pendingItem{idx: i, req: item, order: g.rank(selector.PartitionKey(item.Collective, item.Features, 0))})
	}
	for len(queue) > 0 {
		groups := make(map[*reflectiveReplica][]pendingItem)
		for _, it := range queue {
			groups[it.order[it.attempts]] = append(groups[it.order[it.attempts]], it)
		}
		queue = queue[:0]
		for _, rp := range g.replicas {
			items := groups[rp]
			if len(items) == 0 {
				continue
			}
			sub := make([]selector.BatchRequest, len(items))
			for i, it := range items {
				sub[i] = it.req
			}
			body, _ := json.Marshal(map[string]any{"requests": sub})
			status, reply, err := g.try(rp, body)
			if err == nil && status == http.StatusOK {
				var parsed struct {
					Results []reflectiveItem `json:"results"`
				}
				if jerr := json.Unmarshal(reply, &parsed); jerr != nil || len(parsed.Results) != len(items) {
					err = fmt.Errorf("replica %s: unparseable batch response", rp.id)
				} else {
					for i, it := range items {
						results[it.idx] = parsed.Results[i]
						results[it.idx].Replica = rp.id
					}
					continue
				}
			} else if err == nil {
				for _, it := range items {
					results[it.idx] = reflectiveItem{Error: fmt.Sprintf("replica %s: HTTP %d", rp.id, status)}
				}
				continue
			}
			for _, it := range items {
				it.attempts++
				if it.attempts >= g.maxAttempts {
					results[it.idx] = reflectiveItem{Error: "no replica could answer: " + err.Error()}
					continue
				}
				queue = append(queue, it)
			}
		}
	}
	resp := struct {
		Count   int              `json:"count"`
		Errors  int              `json:"errors"`
		Results []reflectiveItem `json:"results"`
	}{Count: len(results), Results: results}
	for _, res := range results {
		if res.Error != "" {
			resp.Errors++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// exchange is one sub-batch call as a replica saw and answered it.
type exchange struct {
	reqs   []selector.BatchRequest
	status int
	reply  []byte
}

// tapedReplica stands between a gateway and a real replica. Recording, it
// passes sub-batches through to the replica and keeps each exchange;
// replaying, it answers the reference gateway from that tape — a replica's
// reply carries a timestamp and a latency, so the same bytes can only be had
// twice by playing them back — and fails the test if the reference's
// sub-batch is not, item for item, the one the splicing gateway sent.
type tapedReplica struct {
	t       *testing.T
	id      string
	backend http.Handler // the real replica; nil when replaying

	mu      sync.Mutex
	tape    *[]exchange // shared by the recording and the replaying side
	failing bool        // recording: answer 503 instead of asking the replica
}

func (tr *tapedReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/select/batch" {
		tr.backend.ServeHTTP(w, r) // the health probe
		return
	}
	body, _ := io.ReadAll(r.Body)
	var env struct {
		Requests []selector.BatchRequest `json:"requests"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		tr.t.Errorf("replica %s received a sub-batch that is not JSON: %v: %q", tr.id, err, body)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ex exchange
	if tr.backend == nil {
		if len(*tr.tape) == 0 {
			tr.t.Errorf("replica %s: the reference sent a sub-batch the splicing gateway did not: %q", tr.id, body)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		ex, *tr.tape = (*tr.tape)[0], (*tr.tape)[1:]
		if !reflect.DeepEqual(ex.reqs, env.Requests) {
			tr.t.Errorf("replica %s: sub-batches differ\nsplicing gateway sent %+v\nreference sends       %+v", tr.id, ex.reqs, env.Requests)
		}
	} else {
		ex = exchange{reqs: env.Requests, status: http.StatusServiceUnavailable}
		if !tr.failing {
			rec := httptest.NewRecorder()
			r.Body = io.NopCloser(bytes.NewReader(body))
			tr.backend.ServeHTTP(rec, r)
			ex.status, ex.reply = rec.Code, rec.Body.Bytes()
		}
		*tr.tape = append(*tr.tape, ex)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ex.status)
	w.Write(ex.reply)
}

// TestBatchReplyEqualsReflectiveMerge drives one seeded stream of batch-16
// bodies through the splicing gateway over real replicas, and the recorded
// replica replies through the reflective reference: the client's reply must
// be the same bytes, and each replica must be sent the same items. The
// stream mixes cold, cached and failing items; one replica answers 503 for a
// stretch (its items re-route mid-batch) and is later killed outright.
func TestBatchReplyEqualsReflectiveMerge(t *testing.T) {
	bundleData, err := synth.JSON(synth.Config{Seed: 7, Collectives: []string{"allgather", "broadcast"}})
	if err != nil {
		t.Fatalf("synth bundle: %v", err)
	}
	ids := []string{"r0", "r1", "r2"}
	var recorders, players []*tapedReplica
	var recordSrv, playSrv []*httptest.Server
	var recordSpecs, playSpecs []gateway.ReplicaSpec
	for _, id := range ids {
		tape := new([]exchange)
		rec := &tapedReplica{t: t, id: id, tape: tape, backend: newServeHandler(t, bundleData, 1024)}
		play := &tapedReplica{t: t, id: id, tape: tape}
		recorders, players = append(recorders, rec), append(players, play)
		recordSrv, playSrv = append(recordSrv, httptest.NewServer(rec)), append(playSrv, httptest.NewServer(play))
		t.Cleanup(recordSrv[len(recordSrv)-1].Close)
		t.Cleanup(playSrv[len(playSrv)-1].Close)
		recordSpecs = append(recordSpecs, gateway.ReplicaSpec{ID: id, URL: recordSrv[len(recordSrv)-1].URL})
		playSpecs = append(playSpecs, gateway.ReplicaSpec{ID: id, URL: playSrv[len(playSrv)-1].URL})
	}
	proxyClient := gateway.NewProxyClient(10 * time.Second)
	spliced, err := gateway.New(obs.NewForTest(), gateway.Config{Replicas: recordSpecs, MaxAttempts: 3, Client: proxyClient})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	reference := newReflectiveGateway(playSpecs, 3)

	// The stream: canonical 14-feature items over a pool small enough that
	// points repeat (cached on their owner the second time), with an unknown
	// collective or an empty feature map now and then (inline item errors).
	rng := rand.New(rand.NewSource(21))
	pool := synth.Points(21, 96)
	nextBody := func() []byte {
		var body bytes.Buffer
		body.WriteString(`{"requests":[`)
		for i := 0; i < 16; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			item := map[string]any{"collective": []string{"allgather", "broadcast"}[rng.Intn(2)], "features": pool[rng.Intn(len(pool))]}
			switch rng.Intn(12) {
			case 0:
				item["collective"] = "scan"
			case 1:
				item["features"] = map[string]float64{}
			}
			text, err := json.Marshal(item)
			if err != nil {
				t.Fatal(err)
			}
			body.Write(text)
		}
		body.WriteString(`]}`)
		return body.Bytes()
	}
	post := func(h http.Handler, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	sawCached, sawItemError, sawReroute := false, false, false
	compare := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			body := nextBody()
			gotCode, got := post(spliced, body)
			wantCode, want := post(reference, body)
			if gotCode != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("%s, batch %d: replies differ\nspliced   (%d): %s\nreference (%d): %s", phase, i, gotCode, got, wantCode, want)
			}
			sawCached = sawCached || bytes.Contains(got, []byte(`"cached":true`))
			sawItemError = sawItemError || bytes.Contains(got, []byte(`{"error":"`))
			for _, play := range players {
				if left := len(*play.tape); left != 0 {
					t.Fatalf("%s, batch %d: replica %s answered %d sub-batch(es) the reference never sent", phase, i, play.id, left)
				}
			}
		}
	}

	compare("healthy fleet", 40)
	if !sawCached || !sawItemError {
		t.Fatalf("the stream never exercised a cached item (%v) or an inline item error (%v)", sawCached, sawItemError)
	}

	// r1 starts answering 503: the first batch that reaches it loses that
	// sub-batch mid-flight and re-routes its items in a second round; later
	// batches route around it.
	recorders[1].mu.Lock()
	recorders[1].failing = true
	recorders[1].mu.Unlock()
	compare("r1 answering 503", 10)
	for _, info := range spliced.Snapshot() {
		if info.ID == "r1" {
			sawReroute = !info.Healthy && info.Errors > 0
		}
	}
	if !sawReroute {
		t.Fatal("r1's 503s never reached the splicing gateway's ledger: the failover round was not exercised")
	}

	// r1 recovers (both gateways learn it), then r2 is killed outright:
	// connections refused on both sides.
	recorders[1].mu.Lock()
	recorders[1].failing = false
	recorders[1].mu.Unlock()
	spliced.CheckNow(context.Background())
	for _, rp := range reference.replicas {
		rp.healthy = true
	}
	compare("recovered fleet", 10)
	recordSrv[2].Close()
	playSrv[2].Close()
	// Close hangs up r2's end of the gateway's pooled connections, but the
	// gateway's transport notices only when its read loop next runs; on a
	// busy host a request can still pick such a connection and read EOF.
	// Drop the pool so the next attempt dials r2 and is refused.
	proxyClient.CloseIdleConnections()
	compare("r2 killed", 10)
	if got := spliced.Snapshot()[2]; got.Healthy || !strings.Contains(got.LastError, "refused") {
		t.Fatalf("killed replica r2 in the ledger: healthy=%v last_error=%q, want down with a refused connection", got.Healthy, got.LastError)
	}
}
