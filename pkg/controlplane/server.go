package controlplane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// Server is the control plane's HTTP surface:
//
//	GET  /v1/bundles/{hash}     bundle bytes (ETag = "<hash>", 304 on match)
//	POST /v1/bundles            upload a bundle (body = JSON or PMLB bytes)
//	GET  /v1/manifest           desired generation for ?ring= or ?replica=
//	POST /v1/heartbeat          replica heartbeat (JSON Heartbeat)
//	POST /v1/rollout/start      {"hash": "..."} begin canary rollout
//	POST /v1/rollout/promote    force-advance canary→fleet→done
//	POST /v1/rollout/rollback   withdraw the candidate
//	GET  /debug/rollout         full rollout snapshot
//	GET  /healthz               control-plane health (role "controlplane")
//	GET  /metrics               Prometheus text metrics
//
// Bundle and manifest GETs honor If-None-Match, so a steady-state fleet
// polls with body-less 304s.
type Server struct {
	store   *Store
	rollout *Rollout
	o       *obs.Obs
	started time.Time
	mux     *http.ServeMux
	poll    time.Duration

	httpRequests *obs.Counter
	httpLatency  *obs.Histogram
	heartbeats   *obs.Counter
	notModified  *obs.Counter
	bundleBytes  *obs.Counter
	replicaGauge *obs.Gauge
	stateGauge   *obs.Gauge
}

// ServerConfig tunes the control-plane HTTP surface.
type ServerConfig struct {
	// PollInterval is the advisory replica poll interval surfaced in
	// every manifest. Default 2s.
	PollInterval time.Duration
}

// NewServer wires the HTTP surface over a store and rollout controller.
func NewServer(store *Store, rollout *Rollout, o *obs.Obs, cfg ServerConfig) *Server {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	s := &Server{
		store:   store,
		rollout: rollout,
		o:       o,
		started: time.Now(),
		mux:     http.NewServeMux(),
		poll:    cfg.PollInterval,
		httpRequests: o.Registry.Counter("pmlmpi_ctl_http_requests_total",
			"Control-plane HTTP requests served, by path and status code.", "path", "code"),
		httpLatency: o.Registry.Histogram("pmlmpi_ctl_http_request_duration_seconds",
			"Control-plane HTTP request handling latency.", obs.LatencyBuckets, "path"),
		heartbeats: o.Registry.Counter("pmlmpi_ctl_heartbeats_total",
			"Replica heartbeats ingested, by replica id.", "replica"),
		notModified: o.Registry.Counter("pmlmpi_ctl_not_modified_total",
			"Conditional GETs answered with a body-less 304, by path.", "path"),
		bundleBytes: o.Registry.Counter("pmlmpi_ctl_bundle_bytes_total",
			"Bundle payload bytes served from the content-addressed store."),
		replicaGauge: o.Registry.Gauge("pmlmpi_ctl_replicas",
			"Replicas known to the rollout controller."),
		stateGauge: o.Registry.Gauge("pmlmpi_ctl_rollout_state",
			"Rollout state as a one-hot gauge.", "state"),
	}
	buildinfo.Register(o.Registry)
	s.route("/v1/bundles/", http.MethodGet, "GET /v1/bundles/{hash} returns the stored bundle bytes", s.handleBundleGet)
	s.route("/v1/bundles", http.MethodPost, "POST raw bundle bytes (JSON or PMLB) to store them content-addressed", s.handleBundlePut)
	s.route("/v1/manifest", http.MethodGet, "GET returns the desired generation for ?ring= / ?replica=", s.handleManifest)
	s.route("/v1/heartbeat", http.MethodPost, "POST a JSON heartbeat: {\"replica_id\": ..., \"active_hash\": ..., ...}", s.handleHeartbeat)
	s.route("/v1/rollout/start", http.MethodPost, "POST a JSON body: {\"hash\": \"...\"} starts a canary rollout", s.handleRolloutStart)
	s.route("/v1/rollout/promote", http.MethodPost, "POST with an empty body force-advances the rollout", s.handleRolloutPromote)
	s.route("/v1/rollout/rollback", http.MethodPost, "POST with an empty body withdraws the candidate", s.handleRolloutRollback)
	s.route("/debug/rollout", http.MethodGet, "GET returns the rollout controller snapshot", s.handleRolloutDebug)
	s.route("/healthz", http.MethodGet, "GET returns control-plane health", s.handleHealthz)
	s.route("/metrics", http.MethodGet, "GET returns Prometheus text metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers one method-enforced, instrumented endpoint (same
// contract as pkg/admin: other methods get 405 + Allow + usage hint, HEAD
// rides along with GET).
func (s *Server) route(path, method, usage string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			writeError(sr, http.StatusMethodNotAllowed, usage)
		} else {
			h(sr, r)
		}
		s.httpRequests.Inc(path, strconv.Itoa(sr.code))
		s.httpLatency.Observe(time.Since(start).Seconds(), path)
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

// etagMatch reports whether an If-None-Match header matches etag
// (strong comparison; "*" matches anything).
func etagMatch(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, part := range strings.Split(inm, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// handleBundleGet serves bundle bytes by content hash. The ETag is the
// quoted hash itself — content-addressed data never changes under its
// key, so If-None-Match always short-circuits to 304 once a replica
// holds the bytes.
func (s *Server) handleBundleGet(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/v1/bundles/")
	if !ValidHash(hash) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad bundle hash %q: want 64 hex chars", hash))
		return
	}
	etag := `"` + hash + `"`
	if etagMatch(r, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		s.notModified.Inc("/v1/bundles/")
		return
	}
	data, ok := s.store.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no bundle %s in store", short(hash)))
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(data)
		s.bundleBytes.Add(float64(len(data)))
	}
}

// handleBundlePut stores an uploaded bundle. ?stable=true additionally
// seeds it as the fleet-wide stable hash (first boot / bootstrap);
// ?rollout=true starts a staged rollout of it in the same call.
func (s *Server) handleBundlePut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	hash, existed, err := s.store.Put(data)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if r.URL.Query().Get("stable") == "true" {
		if err := s.rollout.SetStable(hash); err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
	}
	if r.URL.Query().Get("rollout") == "true" {
		if err := s.rollout.Start(hash); err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"hash":       hash,
		"existed":    existed,
		"generation": s.store.Seq(hash),
		"bytes":      len(data),
	})
}

// handleManifest serves the desired generation for one ring. ?replica=
// resolves the ring from the controller's assignment (what agents use);
// ?ring= asks for a ring explicitly; neither defaults to the fleet ring.
// The ETag folds the controller revision and the resolved ring, so any
// state or membership change invalidates conditional polls.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	ring := r.URL.Query().Get("ring")
	if id := r.URL.Query().Get("replica"); id != "" {
		ring = s.rollout.RingOf(id)
	}
	m := s.rollout.Manifest(ring)
	m.PollSeconds = s.poll.Seconds()
	etag := fmt.Sprintf(`"m%d-%s"`, s.rollout.Rev(), m.Ring)
	w.Header().Set("ETag", etag)
	if etagMatch(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		s.notModified.Inc("/v1/manifest")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&hb); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if hb.ReplicaID == "" {
		writeError(w, http.StatusBadRequest, "missing \"replica_id\"")
		return
	}
	ring, state := s.rollout.Observe(hb)
	s.heartbeats.Inc(hb.ReplicaID)
	writeJSON(w, http.StatusOK, HeartbeatAck{Ring: ring, RolloutState: state})
}

// rolloutStartRequest is the POST /v1/rollout/start body.
type rolloutStartRequest struct {
	Hash string `json:"hash"`
}

func (s *Server) handleRolloutStart(w http.ResponseWriter, r *http.Request) {
	var req rolloutStartRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if !ValidHash(req.Hash) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad \"hash\" %q: want 64 hex chars", req.Hash))
		return
	}
	if err := s.rollout.Start(req.Hash); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.rollout.Snapshot())
}

func (s *Server) handleRolloutPromote(w http.ResponseWriter, r *http.Request) {
	if err := s.rollout.Promote(); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.rollout.Snapshot())
}

func (s *Server) handleRolloutRollback(w http.ResponseWriter, r *http.Request) {
	if err := s.rollout.Rollback("operator requested rollback"); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.rollout.Snapshot())
}

func (s *Server) handleRolloutDebug(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rollout.Snapshot())
}

// ctlHealth is the control plane's /healthz body. Role and Desired mirror
// the fleet-wide health schema (satellite: every node reports its role
// and the generation it believes is desired).
type ctlHealth struct {
	Status        string `json:"status"`
	Role          string `json:"role"`
	ServerVersion string `json:"server_version"`
	GoVersion     string `json:"go_version"`
	Desired       struct {
		Hash       string `json:"hash,omitempty"`
		Generation uint64 `json:"generation,omitempty"`
		Ring       string `json:"ring"`
		State      string `json:"rollout_state"`
	} `json:"desired"`
	StableHash    string  `json:"stable_hash,omitempty"`
	Bundles       int     `json:"bundles"`
	Replicas      int     `json:"replicas"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.rollout.Snapshot()
	m := s.rollout.Manifest(RingFleet)
	h := ctlHealth{
		Status:        "ok",
		Role:          "controlplane",
		ServerVersion: buildinfo.Resolve(),
		GoVersion:     buildinfo.GoVersion(),
		StableHash:    snap.StableHash,
		Bundles:       snap.BundleCount,
		Replicas:      len(snap.Replicas),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	h.Desired.Hash = m.DesiredHash
	h.Desired.Generation = m.DesiredGeneration
	h.Desired.Ring = m.Ring
	h.Desired.State = m.RolloutState
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.rollout.Snapshot()
	s.replicaGauge.Set(float64(len(snap.Replicas)))
	for _, st := range []string{StateIdle, StateCanary, StateFleet, StateDone, StateRolledBack} {
		v := 0.0
		if st == snap.State {
			v = 1
		}
		s.stateGauge.Set(v, st)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.o.Registry.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
