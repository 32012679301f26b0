// Package admin serves the HTTP operational surface of the PML-MPI
// selector: Prometheus metrics, health/readiness, ring buffers of recent
// decisions and sampled traces, decision analytics, optional pprof, and a
// JSON selection endpoint. Every route is registered on an obs.Mux, so each
// request is itself instrumented (request ID, request counter, duration
// histogram, access log) and the admin surface dogfoods the obs package it
// exposes.
package admin

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/retrain"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// Config tunes optional parts of the admin surface.
type Config struct {
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default: the
	// profile endpoints can stall the process (CPU profiles block for their
	// duration) and belong behind an operator's explicit flag.
	Pprof bool
	// Registry, when non-nil, mounts the model-registry lifecycle surface
	// (GET /v1/registry, POST /v1/registry/{load,promote,rollback}) and
	// makes /healthz generation-aware: the active generation is reported,
	// and a registry with no valid active bundle degrades health to 503.
	Registry *registry.Registry
	// Shadow, when non-nil, mounts /debug/shadow with the candidate
	// agreement/latency report.
	Shadow *registry.Shadow
	// SLO, when non-nil, mounts /debug/slo with the rolling burn-rate
	// report and refreshes the pmlmpi_slo_* gauges on every /metrics
	// scrape.
	SLO *slo.Tracker
	// Health, when non-nil, mounts the model-health observatory surface
	// (/debug/drift, /debug/scorecards, /debug/flightrecorder), adds a
	// model_health block to /healthz, and refreshes the pmlmpi_drift_* /
	// pmlmpi_margin_* gauges on every /metrics scrape.
	Health *modelhealth.Observatory
	// Feedback, when non-nil, mounts POST /v1/feedback: observed
	// per-algorithm latencies stream into the append-only feedback store
	// (validated, oracle-guarded, deduped) for the retrain loop.
	Feedback *feedback.Store
	// Retrain, when non-nil, mounts /debug/retrain with the controller's
	// state machine and verdict history, and adds a retrain block to
	// /healthz.
	Retrain *retrain.Controller
	// Role names this node's fleet role in /healthz ("server", "replica",
	// "gateway"). Empty defaults to "server".
	Role string
	// Desired, when non-nil, supplies the manifest state this node
	// believes is desired (the replica agent's Status) for /healthz, so
	// fleet drift is diagnosable from one endpoint.
	Desired func() any
}

// Server is the admin HTTP handler.
type Server struct {
	sel      *selector.Selector
	o        *obs.Obs
	reg      *registry.Registry
	shadow   *registry.Shadow
	slo      *slo.Tracker
	health   *modelhealth.Observatory
	feedback *feedback.Store
	retrain  *retrain.Controller
	role     string
	desired  func() any
	started  time.Time
	mux      *obs.Mux
}

// New builds the admin surface for a selector.
func New(sel *selector.Selector, o *obs.Obs, cfg Config) *Server {
	s := &Server{
		sel:      sel,
		o:        o,
		reg:      cfg.Registry,
		shadow:   cfg.Shadow,
		slo:      cfg.SLO,
		health:   cfg.Health,
		feedback: cfg.Feedback,
		retrain:  cfg.Retrain,
		role:     cfg.Role,
		desired:  cfg.Desired,
		started:  time.Now(),
		mux:      obs.NewMux(o, "pmlmpi"),
	}
	buildinfo.Register(o.Registry)
	s.mux.Route("/metrics", http.MethodGet, "GET returns Prometheus text metrics", s.handleMetrics)
	s.mux.Route("/healthz", http.MethodGet, "GET returns serving health", s.handleHealthz)
	s.mux.Route("/debug/decisions", http.MethodGet, "GET lists recent decisions (?limit=, ?collective=)", s.handleDecisions)
	s.mux.Route("/debug/traces", http.MethodGet, "GET lists sampled traces (?limit=) or one tree (?id=)", s.handleTraces)
	s.mux.Route("/debug/analytics", http.MethodGet, "GET returns the decision-analytics rollup", s.handleAnalytics)
	s.mux.Route("/v1/select", http.MethodPost, "POST a JSON body: {\"collective\": ..., \"features\": {...}}", s.handleSelect)
	s.mux.Route("/v1/select/batch", http.MethodPost, "POST a JSON body: {\"requests\": [{\"collective\": ..., \"features\": {...}}, ...]}", s.handleSelectBatch)
	if cfg.Registry != nil {
		s.mux.Route("/v1/registry", http.MethodGet, "GET lists registry generations", s.handleRegistry)
		s.mux.Route("/v1/registry/load", http.MethodPost, "POST a JSON body: {\"path\": \"...\", \"promote\": false}", s.handleRegistryLoad)
		s.mux.Route("/v1/registry/promote", http.MethodPost, "POST a JSON body: {\"id\": N} (omit id to promote the latest staged generation)", s.handleRegistryPromote)
		s.mux.Route("/v1/registry/rollback", http.MethodPost, "POST with an empty body rolls back to the previously active generation", s.handleRegistryRollback)
	}
	if cfg.Shadow != nil {
		s.mux.Route("/debug/shadow", http.MethodGet, "GET returns the shadow-evaluation report", s.handleShadow)
	}
	if cfg.SLO != nil {
		s.mux.Route("/debug/slo", http.MethodGet, "GET returns the rolling SLO burn-rate report", s.handleSLO)
	}
	if cfg.Health != nil {
		s.mux.Route("/debug/drift", http.MethodGet, "GET returns the feature-drift report", s.handleDrift)
		s.mux.Route("/debug/scorecards", http.MethodGet, "GET returns per-generation model scorecards", s.handleScorecards)
		s.mux.Route("/debug/flightrecorder", http.MethodGet, "GET dumps the anomaly flight recorder", s.handleFlightRecorder)
	}
	if cfg.Feedback != nil {
		s.mux.Route("/v1/feedback", http.MethodPost, "POST a JSON body: one record ({\"collective\": ..., \"features\": {...}, \"latency_us\": {...}}) or a batch under \"records\"", s.handleFeedback)
	}
	if cfg.Retrain != nil {
		s.mux.Route("/debug/retrain", http.MethodGet, "GET returns the retrain controller state and verdict history", s.handleRetrain)
	}
	if cfg.Pprof {
		s.mux.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
		s.mux.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		s.mux.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		s.mux.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		s.mux.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Routes returns every registered endpoint with its accepted method
// (pprof endpoints excepted — they are mounted bare). The audit test
// iterates this table so no future route can dodge method enforcement.
func (s *Server) Routes() []obs.Route { return s.mux.Routes() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.slo != nil {
		// Re-evaluate the rolling windows so scraped burn rates are
		// current without a background refresher goroutine.
		s.slo.Refresh()
	}
	if s.health != nil {
		// Same contract for the model-health gauges: current at scrape
		// time, no refresher goroutine.
		s.health.Refresh()
	}
	s.o.Registry.ServeHTTP(w, r)
}

// handleSLO serves the rolling SLO report: objectives plus per-window
// counts, availability, and burn rates.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.slo.Report())
}

// healthCollective summarizes one collective model for /healthz.
type healthCollective struct {
	Trees   int     `json:"trees"`
	Classes int     `json:"classes"`
	CVAUC   float64 `json:"cv_auc"`
}

// healthGeneration summarizes the active model generation for /healthz.
type healthGeneration struct {
	ID          uint64 `json:"id"`
	Hash        string `json:"hash"`
	Source      string `json:"source"`
	Collectives int    `json:"collectives"`
}

// Health is the /healthz response body.
type Health struct {
	Status        string                      `json:"status"`
	Role          string                      `json:"role"`
	Desired       any                         `json:"desired,omitempty"`
	ServerVersion string                      `json:"server_version"`
	GoVersion     string                      `json:"go_version"`
	BundleLoaded  bool                        `json:"bundle_loaded"`
	ModelVersion  string                      `json:"model_version,omitempty"`
	BundlePath    string                      `json:"bundle_path,omitempty"`
	Generation    *healthGeneration           `json:"generation,omitempty"`
	TrainedOn     []string                    `json:"trained_on,omitempty"`
	Collectives   map[string]healthCollective `json:"collectives,omitempty"`
	ModelHealth   *modelhealth.Summary        `json:"model_health,omitempty"`
	Retrain       *retrain.Summary            `json:"retrain,omitempty"`
	UptimeSeconds float64                     `json:"uptime_seconds"`
}

// handleHealthz reports serving health. With a registry configured, it
// reports the active generation and degrades to 503 when no generation is
// active — the load balancer signal that this instance cannot select.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Role:          s.role,
		ServerVersion: buildinfo.Resolve(),
		GoVersion:     buildinfo.GoVersion(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if h.Role == "" {
		h.Role = "server"
	}
	if s.desired != nil {
		h.Desired = s.desired()
	}
	if s.health != nil {
		sum := s.health.Summary()
		h.ModelHealth = &sum
	}
	if s.retrain != nil {
		sum := s.retrain.Summarize()
		h.Retrain = &sum
	}
	b := s.sel.Bundle()
	if b == nil {
		h.Status = "unavailable"
		obs.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h.Status = "ok"
	h.BundleLoaded = true
	h.ModelVersion = b.Version
	h.BundlePath = b.Path
	h.TrainedOn = b.TrainedOn
	h.Collectives = make(map[string]healthCollective, len(b.Collectives))
	for name, c := range b.Collectives {
		h.Collectives[name] = healthCollective{
			Trees:   c.NumTrees(),
			Classes: c.NClasses(),
			CVAUC:   c.CVAUC,
		}
	}
	if s.reg != nil {
		g := s.reg.ActiveGeneration()
		if g == nil {
			h.Status = "unavailable"
			h.BundleLoaded = false
			obs.WriteJSON(w, http.StatusServiceUnavailable, h)
			return
		}
		h.Generation = &healthGeneration{
			ID:          g.ID(),
			Hash:        g.Hash(),
			Source:      g.Source(),
			Collectives: len(g.Bundle().Collectives),
		}
	}
	obs.WriteJSON(w, http.StatusOK, h)
}

// queryLimit parses a non-negative integer query parameter, trying names in
// order ("limit" first, then legacy aliases). Returns -1 after writing a 400
// if the value is malformed; 0 means "no limit".
func queryLimit(w http.ResponseWriter, r *http.Request, names ...string) int {
	for _, name := range names {
		q := r.URL.Query().Get(name)
		if q == "" {
			continue
		}
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			obs.WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("bad %s=%q: want a non-negative integer", name, q))
			return -1
		}
		return v
	}
	return 0
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	n := queryLimit(w, r, "limit", "n") // "n" is the legacy spelling
	if n < 0 {
		return
	}
	collective := r.URL.Query().Get("collective")
	decisions := s.sel.RecentFiltered(n, collective)
	resp := map[string]any{
		"count":     len(decisions),
		"decisions": decisions,
	}
	if collective != "" {
		resp["collective"] = collective
	}
	if s.health != nil {
		if sc, ok := s.health.ActiveScorecard(); ok {
			resp["scorecard"] = sc
		}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// handleTraces serves the sampled-trace ring: without ?id= it lists trace
// summaries newest first (?limit= bounds the list); with ?id= it returns
// the one complete span tree, or a 404 JSON error if it has been evicted.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		tr, ok := s.o.Traces.Get(id)
		if !ok {
			obs.WriteError(w, http.StatusNotFound, fmt.Sprintf("no retained trace %q (evicted or never sampled)", id))
			return
		}
		obs.WriteJSON(w, http.StatusOK, tr)
		return
	}
	limit := queryLimit(w, r, "limit")
	if limit < 0 {
		return
	}
	traces := s.o.Traces.List(limit)
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"sample_rate": s.o.Traces.SampleRate(),
		"count":       len(traces),
		"traces":      traces,
	})
}

// handleAnalytics serves the decision-analytics aggregate: per
// collective × algorithm counts, cache-hit share, and latency quantiles.
func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	rows := s.sel.Analytics()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"count": len(rows),
		"rows":  rows,
	})
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	req, err := selector.ParseSelect(&buf.body, w, r)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The map was decoded for this call alone, so the decision may keep it.
	d, err := s.sel.SelectOwned(r.Context(), req.Collective, req.Features)
	if err != nil {
		obs.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if buf.out, err = selector.AppendDecision(buf.out[:0], d); err != nil {
		obs.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	buf.out = append(buf.out, '\n')
	obs.WriteBody(w, http.StatusOK, buf.out)
}

// handleSelectBatch answers {"requests": [...]} with {"count", "errors",
// "results"}. The results array is positional: results[i] answers
// requests[i] with either {"decision": ...} or {"error": ...}. Item
// failures are reported inline with HTTP 200; only malformed envelopes get
// 4xx.
func (s *Server) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	reqs, err := selector.ParseBatch(&buf.body, w, r)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	results := s.sel.SelectBatchOwned(r.Context(), reqs)
	if buf.out, err = selector.AppendBatchReply(buf.out[:0], results); err != nil {
		obs.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	obs.WriteBody(w, http.StatusOK, buf.out)
}

// wireBuf is the per-request scratch of the select endpoints: the request
// body and the encoded reply.
type wireBuf struct {
	body bytes.Buffer
	out  []byte
}

// maxPooledWireBuf caps what a wireBuf may hold when it goes back to the
// pool, so one maximal batch does not pin megabytes per pool slot.
const maxPooledWireBuf = 1 << 20

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func putWireBuf(b *wireBuf) {
	if b.body.Cap()+cap(b.out) > maxPooledWireBuf {
		return
	}
	b.body.Reset()
	wireBufs.Put(b)
}

// handleRegistry lists resident generations and the active one.
func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	var activeID uint64
	if g := s.reg.ActiveGeneration(); g != nil {
		activeID = g.ID()
	}
	gens := s.reg.Snapshot()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"active_generation": activeID,
		"count":             len(gens),
		"generations":       gens,
	})
}

// registryLoadRequest is the POST /v1/registry/load body.
type registryLoadRequest struct {
	Path string `json:"path"`
	// Promote activates the loaded generation immediately — load, stage,
	// and swap in one call.
	Promote bool `json:"promote,omitempty"`
}

// handleRegistryLoad stages a bundle file as a new generation. An invalid
// bundle yields a 422 and leaves the active generation untouched.
func (s *Server) handleRegistryLoad(w http.ResponseWriter, r *http.Request) {
	var req registryLoadRequest
	if err := obs.DecodeJSON(w, r, 1<<20, &req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Path == "" {
		obs.WriteError(w, http.StatusBadRequest, "missing \"path\"")
		return
	}
	g, err := s.reg.Load(req.Path)
	if err != nil {
		obs.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if req.Promote {
		if _, err := s.reg.Promote(g.ID()); err != nil {
			obs.WriteError(w, http.StatusConflict, err.Error())
			return
		}
	}
	obs.WriteJSON(w, http.StatusOK, s.reg.InfoFor(g))
}

// registryPromoteRequest is the POST /v1/registry/promote body. Id 0 (or an
// empty body) promotes the most recently staged generation.
type registryPromoteRequest struct {
	ID uint64 `json:"id,omitempty"`
}

func (s *Server) handleRegistryPromote(w http.ResponseWriter, r *http.Request) {
	var req registryPromoteRequest
	if err := obs.DecodeJSON(w, r, 1<<16, &req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	id := req.ID
	if id == 0 {
		g := s.reg.LatestStaged()
		if g == nil {
			obs.WriteError(w, http.StatusConflict, "no staged generation to promote (load one first, or pass an explicit id)")
			return
		}
		id = g.ID()
	}
	g, err := s.reg.Promote(id)
	if err != nil {
		obs.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, s.reg.InfoFor(g))
}

func (s *Server) handleRegistryRollback(w http.ResponseWriter, r *http.Request) {
	g, err := s.reg.Rollback()
	if err != nil {
		obs.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, s.reg.InfoFor(g))
}

// handleShadow serves the shadow-evaluation evidence for the staged (or
// most recently staged) candidate generation.
func (s *Server) handleShadow(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.shadow.Report())
}

// handleDrift serves per-feature PSI scores of live traffic against the
// active bundle's embedded training distribution.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.health.DriftReport())
}

// handleScorecards serves the per-generation model scorecards, newest
// first (the active generation leads).
func (s *Server) handleScorecards(w http.ResponseWriter, r *http.Request) {
	cards := s.health.Scorecards()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"count":      len(cards),
		"scorecards": cards,
	})
}

// handleFlightRecorder dumps the anomaly flight recorder: the retained
// records oldest first, plus occupancy/capacity for at-a-glance sizing.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	fr := s.health.Flight()
	records := fr.Dump()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"capacity":  fr.Capacity(),
		"occupancy": fr.Occupancy(),
		"count":     len(records),
		"records":   records,
	})
}

// MaxFeedbackRecords bounds one /v1/feedback batch.
const MaxFeedbackRecords = 1024

// feedbackItemResponse is one entry of the /v1/feedback response's
// positional "results" array.
type feedbackItemResponse struct {
	Outcome feedback.Outcome `json:"outcome"`
	Error   string           `json:"error,omitempty"`
}

// feedbackResponse is the /v1/feedback response body. Per-record outcomes
// (duplicate, quarantined, invalid) are reported inline with HTTP 200;
// only a malformed envelope gets a 4xx.
type feedbackResponse struct {
	Count       int                    `json:"count"`
	Accepted    int                    `json:"accepted"`
	Duplicates  int                    `json:"duplicates"`
	Quarantined int                    `json:"quarantined"`
	Invalid     int                    `json:"invalid"`
	Results     []feedbackItemResponse `json:"results"`
}

// handleFeedback ingests observed per-algorithm latencies into the
// feedback store: parse the envelope strictly, then run every record
// through validation, the oracle plausibility guard, and dedup.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	if err := obs.ReadBody(&body, w, r, 8<<20); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	records, err := feedback.ParseRequest(body.Bytes())
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(records) > MaxFeedbackRecords {
		obs.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d records exceeds the limit of %d", len(records), MaxFeedbackRecords))
		return
	}
	resp := feedbackResponse{Count: len(records), Results: make([]feedbackItemResponse, len(records))}
	for i := range records {
		out, err := s.feedback.Add(&records[i])
		item := feedbackItemResponse{Outcome: out}
		if err != nil {
			item.Error = err.Error()
		}
		resp.Results[i] = item
		switch out {
		case feedback.OutcomeAccepted:
			resp.Accepted++
		case feedback.OutcomeDuplicate:
			resp.Duplicates++
		case feedback.OutcomeQuarantined:
			resp.Quarantined++
		default:
			resp.Invalid++
		}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// handleRetrain serves the retrain controller's state machine, feedback
// snapshot, and verdict history (newest first).
func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.retrain.Report())
}
