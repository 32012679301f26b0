// Package gateway is the fleet's front door: a partitioning HTTP proxy
// that spreads /v1/select traffic across a replica set. Requests are
// keyed by the same quantized (collective, features) identity the
// decision cache uses — selector.PartitionKey — and routed by rendezvous
// (highest-random-weight) hashing, so each replica owns a stable slice
// of the key space and the fleet's decision caches partition instead of
// duplicating. A killed replica's keys re-route to their next-best owner
// while every other key stays put; the rest of the fleet's caches stay
// warm.
//
// Health is tracked two ways: passively (a failed proxy attempt marks
// the replica down, a successful one marks it up) and actively (Run
// probes /healthz on an interval, which also revives recovered
// replicas). Routing prefers healthy replicas in rendezvous order and
// falls back to unhealthy ones only when nothing better remains, with a
// bounded number of attempts per request. A caller that hangs up says
// nothing about a replica: its attempt is neither retried nor held against
// the replica's health.
//
// Batches are split and merged by span, not re-encoded: each item's bytes
// go to its owner as the client wrote them, and each replica's result
// elements come back into the merged reply as the replica wrote them (see
// splice.go).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// MaxBatchItems mirrors the replica-side /v1/select/batch bound.
const MaxBatchItems = 1024

// ReplicaSpec names one backend replica.
type ReplicaSpec struct {
	// ID is the stable replica identity — the rendezvous seed. It must
	// match the replica's -replica-id so routing survives address
	// changes: keys follow the ID, not the URL.
	ID string
	// URL is the replica's base URL, e.g. "http://10.0.0.7:8080".
	URL string
}

// Config tunes the gateway.
type Config struct {
	// Replicas is the backend set; at least one is required.
	Replicas []ReplicaSpec
	// Quantum is the feature-quantization step for partition keys. It
	// must match the replicas' decision-cache quantum for cache locality
	// to hold. <= 0 means selector.DefaultCacheQuantum.
	Quantum float64
	// MaxAttempts bounds how many replicas one request may try before
	// the gateway gives up with a 502. Default 3, capped at the replica
	// count.
	MaxAttempts int
	// HealthInterval is the active /healthz probe period for Run.
	// Default 2s.
	HealthInterval time.Duration
	// ControlPlane, when set, is the control-plane base URL; /healthz
	// then embeds the fleet-ring manifest as the gateway's desired view.
	ControlPlane string
	// Client overrides the proxy HTTP client (default NewProxyClient with a
	// 10s timeout).
	Client *http.Client
}

// proxyIdleConnsPerHost is how many idle connections the proxy client keeps
// per replica. A front door has as many requests in flight to one replica as
// it has callers; net/http's default of two makes every caller past the
// second dial a connection per request and close it afterwards.
const proxyIdleConnsPerHost = 256

// NewProxyClient returns the gateway's replica-facing HTTP client: its own
// transport, sized for a front door, with timeout bounding each attempt.
func NewProxyClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConnsPerHost: proxyIdleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// replica is one backend plus its routing and accounting state.
type replica struct {
	id   string
	url  string
	seed uint64 // rendezvous seed derived from the ID

	// Built once in New and shared, read-only, by every attempt: the request
	// each proxied path starts from (parsed URL, headers), the batch merge's
	// `,"replica":"<id>"`, and the series a healthy replica hits on every call.
	selectReq, batchReq *http.Request
	annotation          []byte
	ok200               obs.BoundCounter
	latency             obs.BoundHistogram

	// healthy is written under mu with lastErr (healthy implies no lastErr)
	// and read without it by routing.
	healthy atomic.Bool

	mu         sync.Mutex
	lastErr    string
	activeGen  uint64
	activeHash string
	requests   uint64
	errors     uint64
	selections map[string]uint64 // successful select items by collective
}

// Gateway is the fleet front door; it implements http.Handler.
type Gateway struct {
	o        *obs.Obs
	cfg      Config
	client   *http.Client
	replicas []*replica // fixed config order
	started  time.Time
	mux      *http.ServeMux

	httpRequests *obs.Counter
	proxied      *obs.Counter
	proxyLatency *obs.Histogram
	retries      *obs.Counter
	healthyGauge *obs.Gauge
}

// New builds a gateway over a fixed replica set.
func New(o *obs.Obs, cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway needs at least one replica")
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = selector.DefaultCacheQuantum
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.MaxAttempts > len(cfg.Replicas) {
		cfg.MaxAttempts = len(cfg.Replicas)
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = NewProxyClient(10 * time.Second)
	}
	g := &Gateway{
		o:       o,
		cfg:     cfg,
		client:  client,
		started: time.Now(),
		mux:     http.NewServeMux(),
		httpRequests: o.Registry.Counter("pmlmpi_gw_http_requests_total",
			"Gateway HTTP requests served, by path and status code.", "path", "code"),
		proxied: o.Registry.Counter("pmlmpi_gw_proxy_requests_total",
			"Proxy attempts, by replica and outcome code (HTTP status, \"error\", or \"canceled\" when the caller went away).", "replica", "code"),
		proxyLatency: o.Registry.Histogram("pmlmpi_gw_proxy_duration_seconds",
			"Proxy round-trip latency, by replica.", obs.LatencyBuckets, "replica"),
		retries: o.Registry.Counter("pmlmpi_gw_retries_total",
			"Requests re-routed after a replica failure, by failed replica.", "replica"),
		healthyGauge: o.Registry.Gauge("pmlmpi_gw_replica_healthy",
			"Replica health as seen by the gateway (1 healthy, 0 down).", "replica"),
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, spec := range cfg.Replicas {
		if spec.ID == "" || spec.URL == "" {
			return nil, fmt.Errorf("replica spec needs both id and url, got %+v", spec)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("duplicate replica id %q", spec.ID)
		}
		seen[spec.ID] = true
		rp := &replica{
			id:         spec.ID,
			url:        strings.TrimRight(spec.URL, "/"),
			seed:       replicaSeed(spec.ID),
			annotation: jsonappend.String([]byte(`,"replica":`), spec.ID),
			ok200:      g.proxied.Bind(spec.ID, "200"),
			latency:    g.proxyLatency.Bind(spec.ID),
			selections: make(map[string]uint64),
		}
		var err error
		if rp.selectReq, err = proxyTemplate(rp.url + "/v1/select"); err != nil {
			return nil, fmt.Errorf("replica %s: %w", spec.ID, err)
		}
		if rp.batchReq, err = proxyTemplate(rp.url + "/v1/select/batch"); err != nil {
			return nil, fmt.Errorf("replica %s: %w", spec.ID, err)
		}
		// Optimistic start: a replica is presumed healthy until a probe or
		// proxy attempt says otherwise, so the gateway serves before the
		// first health sweep completes.
		rp.healthy.Store(true)
		g.replicas = append(g.replicas, rp)
	}
	buildinfo.Register(o.Registry)
	g.route("/v1/select", http.MethodPost, "POST a JSON body: {\"collective\": ..., \"features\": {...}}", g.handleSelect)
	g.route("/v1/select/batch", http.MethodPost, "POST a JSON body: {\"requests\": [...]}", g.handleSelectBatch)
	g.route("/debug/replicas", http.MethodGet, "GET returns per-replica routing and health state", g.handleReplicas)
	g.route("/healthz", http.MethodGet, "GET returns gateway health", g.handleHealthz)
	g.route("/metrics", http.MethodGet, "GET returns Prometheus text metrics", g.handleMetrics)
	return g, nil
}

// replicaSeed derives the rendezvous seed for a replica ID: FNV-1a of
// the ID, finalized with splitmix64 so nearby IDs ("r1", "r2") land far
// apart in the score space.
func replicaSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return selector.Mix64(h.Sum64())
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Run drives the active health prober until ctx is canceled.
func (g *Gateway) Run(ctx context.Context) {
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	g.CheckNow(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.CheckNow(ctx)
		}
	}
}

// CheckNow probes every replica's /healthz once, concurrently, updating
// health state and the advertised active generation. It is the revival
// path: passive failure marking is immediate, but recovery is only ever
// observed here.
func (g *Gateway) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rp := range g.replicas {
		wg.Add(1)
		go func(rp *replica) {
			defer wg.Done()
			g.probe(ctx, rp)
		}(rp)
	}
	wg.Wait()
}

// replicaHealth is the subset of a replica's /healthz the prober reads.
type replicaHealth struct {
	Status     string `json:"status"`
	Generation *struct {
		ID   uint64 `json:"id"`
		Hash string `json:"hash"`
	} `json:"generation"`
}

func (g *Gateway) probe(ctx context.Context, rp *replica) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.url+"/healthz", nil)
	if err != nil {
		g.markDown(rp, err.Error())
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.markDown(rp, err.Error())
		return
	}
	defer resp.Body.Close()
	var h replicaHealth
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		g.markDown(rp, "bad /healthz body: "+err.Error())
		return
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		g.markDown(rp, fmt.Sprintf("replica reports %s (HTTP %d)", h.Status, resp.StatusCode))
		return
	}
	rp.mu.Lock()
	rp.healthy.Store(true)
	rp.lastErr = ""
	if h.Generation != nil {
		rp.activeGen = h.Generation.ID
		rp.activeHash = h.Generation.Hash
	}
	rp.mu.Unlock()
	g.healthyGauge.Set(1, rp.id)
}

func (g *Gateway) markDown(rp *replica, reason string) {
	rp.mu.Lock()
	rp.healthy.Store(false)
	rp.lastErr = reason
	rp.mu.Unlock()
	g.healthyGauge.Set(0, rp.id)
}

// markUp is called on every answered attempt; only the one that finds the
// replica down has anything to change.
func (g *Gateway) markUp(rp *replica) {
	if rp.healthy.Load() {
		return
	}
	rp.mu.Lock()
	rp.healthy.Store(true)
	rp.lastErr = ""
	rp.mu.Unlock()
	g.healthyGauge.Set(1, rp.id)
}

// candidate is one replica as a partition key sees it.
type candidate struct {
	rp      *replica
	score   uint64
	healthy bool
}

func (g *Gateway) candidate(rp *replica, key uint64) candidate {
	return candidate{rp: rp, score: selector.Mix64(key ^ rp.seed), healthy: rp.healthy.Load()}
}

// before is the routing order: healthy replicas first, then rendezvous
// score descending. Ties (identical scores are astronomically unlikely, but
// determinism matters) break on replica ID.
func (a candidate) before(b candidate) bool {
	if a.healthy != b.healthy {
		return a.healthy
	}
	if a.score != b.score {
		return a.score > b.score
	}
	return a.rp.id < b.rp.id
}

// owner returns the first replica in routing order for a partition key —
// where a request goes while nothing fails — without building the order.
func (g *Gateway) owner(key uint64) *replica {
	best := g.candidate(g.replicas[0], key)
	for _, rp := range g.replicas[1:] {
		if c := g.candidate(rp, key); c.before(best) {
			best = c
		}
	}
	return best.rp
}

// failover returns the bounded-retry order for a key whose owner, tried,
// just failed: tried first (attempt counts index the order), then every
// other replica in routing order as of now.
func (g *Gateway) failover(key uint64, tried *replica) []*replica {
	rows := make([]candidate, 0, len(g.replicas))
	for _, rp := range g.replicas {
		if rp != tried {
			rows = append(rows, g.candidate(rp, key))
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].before(rows[b]) })
	order := make([]*replica, 0, len(g.replicas))
	order = append(order, tried)
	for _, row := range rows {
		order = append(order, row.rp)
	}
	return order
}

// Owner returns the replica ID a request currently routes to — exposed
// for tests and for the partition-distribution report.
func (g *Gateway) Owner(collective string, features map[string]float64) string {
	return g.owner(selector.PartitionKey(collective, features, g.cfg.Quantum)).id
}

// proxyTemplate builds the request every proxy attempt to url starts from,
// so the URL is parsed once, not per attempt.
func proxyTemplate(url string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// maxReplyBytes bounds what the gateway reads of one replica reply.
const maxReplyBytes = 16 << 20

// statusClientClosedRequest is what the gateway records for a request
// whose caller hung up or ran out of time before a replica answered (the
// de-facto 499; nobody is left to read it).
const statusClientClosedRequest = 499

// tryReplica performs one proxy attempt from the template tmpl and appends
// the reply body to into. Transport errors and 5xx responses are replica
// failures (retryable, mark down); anything else — including 4xx/422,
// which are the caller's fault — is a final answer and marks the replica
// up. An attempt that ends because ctx did is neither: callers check
// ctx.Err() on error and stop.
func (g *Gateway) tryReplica(ctx context.Context, rp *replica, tmpl *http.Request, body []byte, into *bytes.Buffer) (status int, err error) {
	req := tmpl.WithContext(ctx)
	req.ContentLength = int64(len(body))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	req.Body, _ = req.GetBody()
	start := time.Now()
	resp, err := g.client.Do(req)
	rp.latency.Observe(time.Since(start).Seconds())
	if err == nil {
		if n := resp.ContentLength; n > 0 && n <= maxReplyBytes {
			into.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
		}
		_, err = into.ReadFrom(io.LimitReader(resp.Body, maxReplyBytes))
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			g.proxied.Inc(rp.id, "canceled")
			return 0, ctx.Err()
		}
		g.proxied.Inc(rp.id, "error")
		g.markDown(rp, err.Error())
		rp.count(false, "", 0)
		return 0, err
	}
	if resp.StatusCode == http.StatusOK {
		rp.ok200.Inc()
	} else {
		g.proxied.Inc(rp.id, strconv.Itoa(resp.StatusCode))
	}
	if resp.StatusCode >= 500 {
		g.markDown(rp, fmt.Sprintf("HTTP %d from %s", resp.StatusCode, tmpl.URL.Path))
		rp.count(false, "", 0)
		return 0, fmt.Errorf("replica %s: HTTP %d", rp.id, resp.StatusCode)
	}
	g.markUp(rp)
	return resp.StatusCode, nil
}

// count updates one replica's routing ledger: a request landed (ok or
// not), and on success items selected per collective.
func (rp *replica) count(ok bool, collective string, items uint64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.requests++
	if !ok {
		rp.errors++
		return
	}
	if collective != "" {
		rp.selections[collective] += items
	}
}

// scratch is the working memory of one select call, pooled across calls.
type scratch struct {
	body    bytes.Buffer // the client's request
	replies bytes.Buffer // replica replies, back to back; spans index into it
	sub     []byte       // the sub-batch body being built
	out     []byte       // the merged batch reply
	queue   []pendingItem
	requeue []pendingItem
	members []int
	spans   []resultSpan
	results []itemResult
}

// maxPooledScratch caps what a scratch may hold when it goes back to the
// pool, so one maximal batch does not pin megabytes per pool slot.
const maxPooledScratch = 1 << 20

var scratches = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratches.Get().(*scratch) }

func putScratch(sc *scratch) {
	if sc.body.Cap()+sc.replies.Cap()+cap(sc.sub)+cap(sc.out) > maxPooledScratch {
		return
	}
	sc.body.Reset()
	sc.replies.Reset()
	scratches.Put(sc)
}

// subBatch collects the queued items whose next attempt goes to rp: their
// indexes in queue, and the request that carries them — the client's own
// text for each item inside a fresh envelope.
func (sc *scratch) subBatch(queue []pendingItem, rp *replica, raw [][]byte) (members []int, body []byte) {
	members, body = sc.members[:0], append(sc.sub[:0], `{"requests":[`...)
	for qi := range queue {
		if queue[qi].target != rp {
			continue
		}
		if len(members) > 0 {
			body = append(body, ',')
		}
		body = append(body, raw[queue[qi].idx]...)
		members = append(members, qi)
	}
	body = append(body, "]}"...)
	sc.members, sc.sub = members, body
	return members, body
}

// readBody drains the size-capped request body into sc.body.
func (sc *scratch) readBody(w http.ResponseWriter, r *http.Request, limit int64) error {
	if n := r.ContentLength; n > 0 && n <= limit {
		sc.body.Grow(int(n) + bytes.MinRead)
	}
	_, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return err
}

func (g *Gateway) handleSelect(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBody(w, r, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	body := sc.body.Bytes()
	req, err := selector.DecodeSelect(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Collective == "" {
		writeError(w, http.StatusBadRequest, "missing \"collective\"")
		return
	}
	key := selector.PartitionKey(req.Collective, req.Features, g.cfg.Quantum)
	rp := g.owner(key)
	var order []*replica // built when the owner fails
	for attempt := 1; ; attempt++ {
		status, err := g.tryReplica(r.Context(), rp, rp.selectReq, body, &sc.replies)
		if err == nil {
			if status == http.StatusOK {
				rp.count(true, req.Collective, 1)
			} else {
				rp.count(true, "", 0)
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Pmlmpi-Replica", rp.id)
			w.WriteHeader(status)
			w.Write(sc.replies.Bytes())
			return
		}
		if r.Context().Err() != nil {
			writeError(w, statusClientClosedRequest, "client closed request: "+err.Error())
			return
		}
		if attempt >= g.cfg.MaxAttempts {
			writeError(w, http.StatusBadGateway, "no replica could answer: "+err.Error())
			return
		}
		if order == nil {
			order = g.failover(key, rp)
		}
		g.retries.Inc(rp.id)
		sc.replies.Reset() // a failed attempt may have left half a reply
		rp = order[attempt]
	}
}

// pendingItem tracks one batch member through routing rounds.
type pendingItem struct {
	idx      int      // position in the client's batch
	key      uint64   // partition key
	target   *replica // where the next attempt goes
	attempts int
	// order is the failover order, pinned when the item's owner fails (like
	// the single-select path); attempts indexes into it.
	order []*replica
}

// handleSelectBatch splits a batch along partition boundaries: each item
// routes to its own key's owner, sub-batches fly per replica, and the
// positional envelope is reassembled. Items on a failed replica re-route
// (bounded per-item attempts) in later rounds without failing the call.
// The gateway decodes items only to route them: what a replica receives is
// the client's bytes for its items, and what the client receives is the
// replicas' bytes for its results.
func (g *Gateway) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBody(w, r, 8<<20); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The same decoder as the replicas, so both tiers accept and reject
	// exactly the same bodies.
	reqs, raw, err := selector.DecodeBatchRaw(sc.body.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: \"requests\" must have at least one item")
		return
	}
	if len(reqs) > MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items exceeds the limit of %d", len(reqs), MaxBatchItems))
		return
	}

	sc.results = append(sc.results[:0], make([]itemResult, len(reqs))...)
	results := sc.results
	queue, requeue := sc.queue[:0], sc.requeue[:0]
	for i := range reqs {
		key := selector.PartitionKey(reqs[i].Collective, reqs[i].Features, g.cfg.Quantum)
		queue = append(queue, pendingItem{idx: i, key: key, target: g.owner(key)})
	}
	for len(queue) > 0 {
		// One sub-batch per replica that is some queued item's next target.
		for _, rp := range g.replicas {
			members, sub := sc.subBatch(queue, rp, raw)
			if len(members) == 0 {
				continue
			}
			from := sc.replies.Len()
			status, err := g.tryReplica(r.Context(), rp, rp.batchReq, sub, &sc.replies)
			switch {
			case err != nil && r.Context().Err() != nil:
				writeError(w, statusClientClosedRequest, "client closed request: "+err.Error())
				return
			case err != nil:
			case status != http.StatusOK:
				// Non-200, non-5xx on a whole sub-batch (e.g. a 400 the
				// gateway's own validation should have caught): surface
				// it per item rather than retrying a doomed request.
				for _, qi := range members {
					results[queue[qi].idx] = itemResult{err: fmt.Sprintf("replica %s: HTTP %d", rp.id, status)}
				}
				rp.count(true, "", 0)
				continue
			default:
				var ok bool
				sc.spans, ok = scanBatchReply(sc.replies.Bytes(), from, sc.spans[:0])
				if ok && len(sc.spans) == len(members) {
					rp.mu.Lock()
					rp.requests++
					for j, qi := range members {
						idx := queue[qi].idx
						results[idx] = itemResult{by: rp, span: sc.spans[j]}
						if !sc.spans[j].failed {
							rp.selections[reqs[idx].Collective]++
						}
					}
					rp.mu.Unlock()
					continue
				}
				err = fmt.Errorf("replica %s: unparseable batch response", rp.id)
			}
			// Replica failure: re-queue survivors for the next round.
			g.retries.Inc(rp.id)
			for _, qi := range members {
				it := queue[qi]
				it.attempts++
				if it.attempts >= g.cfg.MaxAttempts {
					results[it.idx] = itemResult{err: "no replica could answer: " + err.Error()}
					continue
				}
				if it.order == nil {
					it.order = g.failover(it.key, rp)
				}
				it.target = it.order[it.attempts]
				requeue = append(requeue, it)
			}
		}
		queue, requeue = requeue, queue[:0]
	}
	sc.queue, sc.requeue = queue, requeue

	sc.out = appendBatchReply(sc.out[:0], results, sc.replies.Bytes())
	writeBody(w, http.StatusOK, sc.out)
}

// ReplicaInfo is one row of /debug/replicas.
type ReplicaInfo struct {
	ID                     string            `json:"id"`
	URL                    string            `json:"url"`
	Healthy                bool              `json:"healthy"`
	LastError              string            `json:"last_error,omitempty"`
	ActiveGeneration       uint64            `json:"active_generation,omitempty"`
	ActiveHash             string            `json:"active_hash,omitempty"`
	Requests               uint64            `json:"requests"`
	Errors                 uint64            `json:"errors"`
	SelectionsByCollective map[string]uint64 `json:"selections_by_collective,omitempty"`
}

// Snapshot returns the per-replica routing ledger in config order.
func (g *Gateway) Snapshot() []ReplicaInfo {
	out := make([]ReplicaInfo, 0, len(g.replicas))
	for _, rp := range g.replicas {
		rp.mu.Lock()
		info := ReplicaInfo{
			ID:               rp.id,
			URL:              rp.url,
			Healthy:          rp.healthy.Load(),
			LastError:        rp.lastErr,
			ActiveGeneration: rp.activeGen,
			ActiveHash:       rp.activeHash,
			Requests:         rp.requests,
			Errors:           rp.errors,
		}
		if len(rp.selections) > 0 {
			info.SelectionsByCollective = make(map[string]uint64, len(rp.selections))
			for c, n := range rp.selections {
				info.SelectionsByCollective[c] = n
			}
		}
		rp.mu.Unlock()
		out = append(out, info)
	}
	return out
}

func (g *Gateway) handleReplicas(w http.ResponseWriter, r *http.Request) {
	rows := g.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    len(rows),
		"replicas": rows,
	})
}

// gwHealth is the gateway's /healthz body: fleet-wide role/desired
// schema plus the replica roster. Status is "ok" while at least one
// replica is believed healthy — the gateway can still route.
type gwHealth struct {
	Status          string        `json:"status"`
	Role            string        `json:"role"`
	ServerVersion   string        `json:"server_version"`
	GoVersion       string        `json:"go_version"`
	Desired         any           `json:"desired,omitempty"`
	HealthyReplicas int           `json:"healthy_replicas"`
	Replicas        []ReplicaInfo `json:"replicas"`
	UptimeSeconds   float64       `json:"uptime_seconds"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rows := g.Snapshot()
	h := gwHealth{
		Role:          "gateway",
		ServerVersion: buildinfo.Resolve(),
		GoVersion:     buildinfo.GoVersion(),
		Replicas:      rows,
		UptimeSeconds: time.Since(g.started).Seconds(),
	}
	for _, row := range rows {
		if row.Healthy {
			h.HealthyReplicas++
		}
	}
	h.Status = "ok"
	code := http.StatusOK
	if h.HealthyReplicas == 0 {
		h.Status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	if g.cfg.ControlPlane != "" {
		if m := g.fetchManifest(r.Context()); m != nil {
			h.Desired = m
		}
	}
	writeJSON(w, code, h)
}

// fetchManifest asks the control plane for the fleet-ring manifest; nil
// on any failure (the health report degrades, it does not fail).
func (g *Gateway) fetchManifest(ctx context.Context) any {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(g.cfg.ControlPlane, "/")+"/v1/manifest?ring=fleet", nil)
	if err != nil {
		return nil
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var m map[string]any
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m); err != nil {
		return nil
	}
	return m
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.o.Registry.WritePrometheus(w)
}

// route registers one method-enforced, instrumented endpoint (same
// contract as pkg/admin and pkg/controlplane).
func (g *Gateway) route(path, method, usage string, h http.HandlerFunc) {
	ok200 := g.httpRequests.Bind(path, "200") // the series a healthy route hits on every request
	g.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			writeError(sr, http.StatusMethodNotAllowed, usage)
		} else {
			h(sr, r)
		}
		if sr.code == http.StatusOK {
			ok200.Inc()
		} else {
			g.httpRequests.Inc(path, strconv.Itoa(sr.code))
		}
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// writeJSON renders v as one line of compact JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeBody sends an already-encoded JSON document in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
