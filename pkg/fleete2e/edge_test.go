package fleete2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/controlplane"
	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/serve"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// edgeTier is one HTTP tier as the route audit sees it: its handler, its
// route table, and the registry its request edge counts into.
type edgeTier struct {
	name, prefix string
	h            http.Handler
	routes       []obs.Route
	reg          *obs.Registry
}

// synthBundleFile writes a synthetic bundle of the given seed to dir and
// returns its path and bytes.
func synthBundleFile(t *testing.T, dir string, seed int64) (string, []byte) {
	t.Helper()
	data, err := synth.JSON(synth.Config{Seed: seed, Collectives: []string{"allgather", "broadcast"}, Trees: 4})
	if err != nil {
		t.Fatalf("synth bundle: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("bundle-%d.json", seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// newEdgeServer builds the full pmlmpi-server stack (feedback and retrain
// surfaces included) on its own Obs.
func newEdgeServer(t *testing.T) (*serve.Stack, *obs.Obs) {
	t.Helper()
	cfg := serve.Defaults()
	cfg.Bundle, _ = synthBundleFile(t, t.TempDir(), 1)
	cfg.FeedbackDir = t.TempDir()
	o := obs.NewForTest()
	st, err := serve.New(cfg, o)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st, o
}

// newEdgeCtl builds a control plane whose store holds the given bundles,
// the first seeded as the stable hash.
func newEdgeCtl(t *testing.T, o *obs.Obs, bundles ...[]byte) (*controlplane.Server, []string) {
	t.Helper()
	store, err := controlplane.NewStore("")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	ro := controlplane.NewRollout(store, fleetRolloutConfig())
	var hashes []string
	for _, data := range bundles {
		hash, _, err := store.Put(data)
		if err != nil {
			t.Fatalf("store.Put: %v", err)
		}
		hashes = append(hashes, hash)
	}
	if len(hashes) > 0 {
		if err := ro.SetStable(hashes[0]); err != nil {
			t.Fatalf("SetStable: %v", err)
		}
	}
	return controlplane.NewServer(store, ro, o, controlplane.ServerConfig{}), hashes
}

// TestEveryTierRouteHonoursTheEdgeContract audits every registered route
// of the server (built by serve.New), the gateway and the control plane
// against the one request-edge contract: a wrong method gets 405 with an
// Allow header naming the accepted one and is counted under
// <prefix>_http_requests_total{code="405"}; HEAD rides along with GET; a
// supplied X-Request-Id is echoed and a missing one minted; and every
// request is timed in <prefix>_http_request_duration_seconds.
func TestEveryTierRouteHonoursTheEdgeContract(t *testing.T) {
	st, so := newEdgeServer(t)
	server, ok := st.Handler.(interface{ Routes() []obs.Route })
	if !ok {
		t.Fatalf("serve.Stack.Handler %T has no route table", st.Handler)
	}

	// The gateway's replica is never contacted: no route below proxies.
	gwo := obs.NewForTest()
	gw, err := gateway.New(gwo, gateway.Config{Replicas: []gateway.ReplicaSpec{{ID: "r0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ctlo := obs.NewForTest()
	ctl, _ := newEdgeCtl(t, ctlo)

	tiers := []edgeTier{
		{"server", "pmlmpi", st.Handler, server.Routes(), so.Registry},
		{"gateway", "pmlmpi_gw", gw, gw.Routes(), gwo.Registry},
		{"controlplane", "pmlmpi_ctl", ctl, ctl.Routes(), ctlo.Registry},
	}
	wrong := map[string]string{http.MethodGet: http.MethodPost, http.MethodPost: http.MethodGet}
	for _, tier := range tiers {
		if len(tier.routes) < 5 {
			t.Fatalf("%s: route table has %d entries, want every endpoint: %+v", tier.name, len(tier.routes), tier.routes)
		}
		requests := tier.reg.Counter(tier.prefix+"_http_requests_total", "", "path", "code")
		latency := tier.reg.Histogram(tier.prefix+"_http_request_duration_seconds", "", nil, "path")
		for i, rt := range tier.routes {
			where := tier.name + " " + rt.Path
			method, ok := wrong[rt.Method]
			if !ok {
				t.Fatalf("%s: route method %q, want GET or POST", where, rt.Method)
			}

			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest(method, rt.Path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, where, rec.Code)
			}
			if got := rec.Header().Get("Allow"); got != rt.Method {
				t.Errorf("%s %s Allow = %q, want %q", method, where, got, rt.Method)
			}
			if rec.Header().Get("X-Request-Id") == "" {
				t.Errorf("%s %s minted no X-Request-Id", method, where)
			}

			// A second request carrying its own ID: HEAD on a GET route
			// (which must be served, not refused), the wrong method again on
			// a POST route.
			second, want405 := http.MethodHead, 1.0
			if rt.Method == http.MethodPost {
				second, want405 = method, 2
			}
			id := fmt.Sprintf("audit-%s-%d", tier.name, i)
			req := httptest.NewRequest(second, rt.Path, nil)
			req.Header.Set("X-Request-Id", id)
			rec = httptest.NewRecorder()
			tier.h.ServeHTTP(rec, req)
			if second == http.MethodHead && rec.Code == http.StatusMethodNotAllowed {
				t.Errorf("HEAD %s = 405, want it treated as GET", where)
			}
			if got := rec.Header().Get("X-Request-Id"); got != id {
				t.Errorf("%s %s echoed X-Request-Id %q, want %q", second, where, got, id)
			}

			if got := requests.Value(rt.Path, "405"); got != want405 {
				t.Errorf(`%s: %s_http_requests_total{path=%q,code="405"} = %v, want %v`, where, tier.prefix, rt.Path, got, want405)
			}
			if got := latency.Count(rt.Path); got != 2 {
				t.Errorf("%s: %s_http_request_duration_seconds{path=%q} count = %d, want 2", where, tier.prefix, rt.Path, got)
			}
		}
	}
}

// TestControlBodiesRejectTrailingGarbage: the four control endpoints that
// take a JSON body decode it with json.Unmarshal's strictness, so a body
// with anything after its one value is a 400, while the same body without
// the tail is served. Unknown fields still ride along (a newer replica's
// heartbeat must reach an older control plane), and an empty chunked
// promote — no Content-Length — promotes the latest staged generation.
func TestControlBodiesRejectTrailingGarbage(t *testing.T) {
	st, _ := newEdgeServer(t)
	dir := t.TempDir()
	stagedPath, _ := synthBundleFile(t, dir, 2)
	latestPath, _ := synthBundleFile(t, dir, 3)
	_, stableData := synthBundleFile(t, dir, 4)
	_, candData := synthBundleFile(t, dir, 5)
	ctl, hashes := newEdgeCtl(t, obs.NewForTest(), stableData, candData)

	post := func(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	pathJSON, _ := json.Marshal(stagedPath)
	rows := []struct {
		name, path, body string
		h                http.Handler
	}{
		{"registry load", "/v1/registry/load", `{"path":` + string(pathJSON) + `}`, st.Handler},
		{"registry promote", "/v1/registry/promote", `{"id":2}`, st.Handler},
		{"heartbeat", "/v1/heartbeat", `{"replica_id":"r1","field_from_a_newer_replica":true}`, ctl},
		{"rollout start", "/v1/rollout/start", `{"hash":"` + hashes[1] + `"}`, ctl},
	}
	for _, row := range rows {
		rec := post(row.h, row.path, strings.NewReader(row.body+"xyz"))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body") {
			t.Errorf("%s with trailing garbage = %d %s, want 400 bad request body", row.name, rec.Code, rec.Body)
		}
		if rec := post(row.h, row.path, strings.NewReader(row.body)); rec.Code != http.StatusOK {
			t.Errorf("%s = %d %s, want 200", row.name, rec.Code, rec.Body)
		}
	}
	if g := st.Registry.ActiveGeneration(); g == nil || g.ID() != 2 {
		t.Fatalf("active generation after the promote = %v, want 2", g)
	}

	// Stage one more generation, then promote it with an empty chunked body.
	latestJSON, _ := json.Marshal(latestPath)
	if rec := post(st.Handler, "/v1/registry/load", strings.NewReader(`{"path":`+string(latestJSON)+`}`)); rec.Code != http.StatusOK {
		t.Fatalf("load = %d %s", rec.Code, rec.Body)
	}
	chunked := struct{ io.Reader }{strings.NewReader("")} // unknown length, as a chunked body arrives
	rec := post(st.Handler, "/v1/registry/promote", chunked)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty chunked promote = %d %s, want 200", rec.Code, rec.Body)
	}
	if g := st.Registry.ActiveGeneration(); g == nil || g.ID() != 3 {
		t.Errorf("active generation after the empty promote = %v, want the latest staged (3)", g)
	}
}
