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
// bounded number of attempts per request.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
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
	// Client overrides the proxy HTTP client (default 10s timeout).
	Client *http.Client
}

// replica is one backend plus its routing and accounting state.
type replica struct {
	id   string
	url  string
	seed uint64 // rendezvous seed derived from the ID

	mu         sync.Mutex
	healthy    bool
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
		client = &http.Client{Timeout: 10 * time.Second}
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
			"Proxy attempts, by replica and outcome code (HTTP status or \"error\").", "replica", "code"),
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
		g.replicas = append(g.replicas, &replica{
			id:   spec.ID,
			url:  strings.TrimRight(spec.URL, "/"),
			seed: replicaSeed(spec.ID),
			// Optimistic start: a replica is presumed healthy until a
			// probe or proxy attempt says otherwise, so the gateway
			// serves before the first health sweep completes.
			healthy:    true,
			selections: make(map[string]uint64),
		})
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
	rp.healthy = true
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
	rp.healthy = false
	rp.lastErr = reason
	rp.mu.Unlock()
	g.healthyGauge.Set(0, rp.id)
}

func (g *Gateway) markUp(rp *replica) {
	rp.mu.Lock()
	rp.healthy = true
	rp.lastErr = ""
	rp.mu.Unlock()
	g.healthyGauge.Set(1, rp.id)
}

// rank orders replicas for a partition key: rendezvous score descending,
// healthy replicas before unhealthy ones. The first entry is the key's
// owner; the tail is the bounded-retry failover order. Ties (identical
// scores are astronomically unlikely, but determinism matters) break on
// replica ID.
func (g *Gateway) rank(key uint64) []*replica {
	type scored struct {
		rp      *replica
		score   uint64
		healthy bool
	}
	rows := make([]scored, len(g.replicas))
	for i, rp := range g.replicas {
		rp.mu.Lock()
		healthy := rp.healthy
		rp.mu.Unlock()
		rows[i] = scored{rp: rp, score: selector.Mix64(key ^ rp.seed), healthy: healthy}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].healthy != rows[b].healthy {
			return rows[a].healthy
		}
		if rows[a].score != rows[b].score {
			return rows[a].score > rows[b].score
		}
		return rows[a].rp.id < rows[b].rp.id
	})
	out := make([]*replica, len(rows))
	for i, row := range rows {
		out[i] = row.rp
	}
	return out
}

// Owner returns the replica ID a request currently routes to — exposed
// for tests and for the partition-distribution report.
func (g *Gateway) Owner(collective string, features map[string]float64) string {
	key := selector.PartitionKey(collective, features, g.cfg.Quantum)
	return g.rank(key)[0].id
}

// proxyResult is one completed proxy attempt.
type proxyResult struct {
	status int
	body   []byte
}

// tryReplica performs one proxy attempt. Transport errors and 5xx
// responses are replica failures (retryable, mark down); anything else —
// including 4xx/422, which are the caller's fault — is a final answer
// and marks the replica up.
func (g *Gateway) tryReplica(ctx context.Context, rp *replica, path string, body []byte) (proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rp.url+path, bytes.NewReader(body))
	if err != nil {
		return proxyResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := g.client.Do(req)
	g.proxyLatency.Observe(time.Since(start).Seconds(), rp.id)
	if err != nil {
		g.proxied.Inc(rp.id, "error")
		g.markDown(rp, err.Error())
		rp.count(false, "", 0)
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		g.proxied.Inc(rp.id, "error")
		g.markDown(rp, err.Error())
		rp.count(false, "", 0)
		return proxyResult{}, err
	}
	g.proxied.Inc(rp.id, strconv.Itoa(resp.StatusCode))
	if resp.StatusCode >= 500 {
		g.markDown(rp, fmt.Sprintf("HTTP %d from %s", resp.StatusCode, path))
		rp.count(false, "", 0)
		return proxyResult{}, fmt.Errorf("replica %s: HTTP %d", rp.id, resp.StatusCode)
	}
	g.markUp(rp)
	return proxyResult{status: resp.StatusCode, body: respBody}, nil
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

func (g *Gateway) handleSelect(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
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
	order := g.rank(key)
	var lastErr error
	for i, rp := range order {
		if i >= g.cfg.MaxAttempts {
			break
		}
		if i > 0 {
			g.retries.Inc(order[i-1].id)
		}
		res, err := g.tryReplica(r.Context(), rp, "/v1/select", body)
		if err != nil {
			lastErr = err
			continue
		}
		if res.status == http.StatusOK {
			rp.count(true, req.Collective, 1)
		} else {
			rp.count(true, "", 0)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Pmlmpi-Replica", rp.id)
		w.WriteHeader(res.status)
		w.Write(res.body)
		return
	}
	writeError(w, http.StatusBadGateway, "no replica could answer: "+errString(lastErr))
}

// batchItem is one positional entry of a replica's batch response. The
// decision passes through opaquely; only the error field is inspected.
// The gateway annotates each answered item with the replica that served
// it — extra over the single-server schema, ignored by clients that
// don't know it.
type batchItem struct {
	Decision json.RawMessage `json:"decision,omitempty"`
	Error    string          `json:"error,omitempty"`
	Replica  string          `json:"replica,omitempty"`
}

// pendingItem tracks one batch member through routing rounds. The
// failover order is pinned at enqueue time (like the single-select
// path), so attempts index straight into it.
type pendingItem struct {
	idx      int
	req      selector.BatchRequest
	order    []*replica
	attempts int
}

// handleSelectBatch splits a batch along partition boundaries: each item
// routes to its own key's owner, sub-batches fly per replica, and the
// positional envelope is reassembled. Items on a failed replica re-route
// (bounded per-item attempts) in later rounds without failing the call.
func (g *Gateway) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The same decoder as the replicas, so both tiers accept and reject
	// exactly the same bodies.
	reqs, err := selector.DecodeBatch(body)
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

	results := make([]batchItem, len(reqs))
	queue := make([]pendingItem, 0, len(reqs))
	for i, item := range reqs {
		queue = append(queue, pendingItem{
			idx: i, req: item,
			order: g.rank(selector.PartitionKey(item.Collective, item.Features, g.cfg.Quantum)),
		})
	}
	for len(queue) > 0 {
		// Group this round's items by each one's next untried replica.
		// Every queued item has attempts < MaxAttempts <= len(order).
		groups := make(map[*replica][]pendingItem)
		for _, it := range queue {
			groups[it.order[it.attempts]] = append(groups[it.order[it.attempts]], it)
		}
		queue = queue[:0]
		for rp, items := range groups {
			sub := make([]selector.BatchRequest, len(items))
			for i, it := range items {
				sub[i] = it.req
			}
			body, _ := json.Marshal(map[string]any{"requests": sub})
			res, err := g.tryReplica(r.Context(), rp, "/v1/select/batch", body)
			if err == nil && res.status == http.StatusOK {
				var parsed struct {
					Results []batchItem `json:"results"`
				}
				if jerr := json.Unmarshal(res.body, &parsed); jerr != nil || len(parsed.Results) != len(items) {
					err = fmt.Errorf("replica %s: unparseable batch response", rp.id)
				} else {
					for i, it := range items {
						results[it.idx] = parsed.Results[i]
						results[it.idx].Replica = rp.id
						if parsed.Results[i].Error == "" {
							rp.countCollective(it.req.Collective)
						}
					}
					rp.count(true, "", 0)
					continue
				}
			} else if err == nil {
				// Non-200, non-5xx on a whole sub-batch (e.g. a 400 the
				// gateway's own validation should have caught): surface
				// it per item rather than retrying a doomed request.
				for _, it := range items {
					results[it.idx] = batchItem{Error: fmt.Sprintf("replica %s: HTTP %d", rp.id, res.status)}
				}
				rp.count(true, "", 0)
				continue
			}
			// Replica failure: re-queue survivors for the next round.
			g.retries.Inc(rp.id)
			for _, it := range items {
				it.attempts++
				if it.attempts >= g.cfg.MaxAttempts {
					results[it.idx] = batchItem{Error: "no replica could answer: " + err.Error()}
					continue
				}
				queue = append(queue, it)
			}
		}
	}

	resp := struct {
		Count   int         `json:"count"`
		Errors  int         `json:"errors"`
		Results []batchItem `json:"results"`
	}{Count: len(results), Results: results}
	for _, res := range results {
		if res.Error != "" {
			resp.Errors++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// countCollective tallies one successful batch item.
func (rp *replica) countCollective(collective string) {
	rp.mu.Lock()
	rp.selections[collective]++
	rp.mu.Unlock()
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
			Healthy:          rp.healthy,
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
	g.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			writeError(sr, http.StatusMethodNotAllowed, usage)
		} else {
			h(sr, r)
		}
		g.httpRequests.Inc(path, strconv.Itoa(sr.code))
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

func errString(err error) string {
	if err == nil {
		return "no replicas configured"
	}
	return err.Error()
}

// writeJSON renders v as one line of compact JSON; replica payloads
// embedded as json.RawMessage pass through as the replica wrote them.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
