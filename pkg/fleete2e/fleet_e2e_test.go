// Package fleete2e exercises the whole fleet-serving stack in one
// process: a real control plane (httptest), three replica stacks built by
// serve.New as pmlmpi-server builds them, and the partitioning gateway,
// driven deterministically through Agent.Tick.
//
// The scenarios mirror the operational stories the fleet exists for:
// a staged canary -> fleet promote of a compatible candidate, an
// auto-rollback of a bad candidate that non-canary replicas must never
// serve, and gateway-vs-single-server loadgen tally equality for the
// same seed.
package fleete2e

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/controlplane"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/serve"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// constBundleJSON builds a minimal valid bundle whose every collective
// predicts the same class for every input: a single-leaf tree with all
// its mass on that class. Two bundles with equal classes but different
// salts have different content hashes and identical predictions (shadow
// agreement exactly 1.0); different classes disagree on every sample
// (agreement exactly 0.0) — the two deterministic endpoints the rollout
// verdicts key on.
func constBundleJSON(t *testing.T, collectives []string, class int, salt string) []byte {
	t.Helper()
	const classes = 4
	dist := make([]float64, classes)
	for i := range dist {
		dist[i] = 0.01
	}
	dist[class] = 1 - 0.01*float64(classes-1)

	doc := map[string]any{
		"version":    bundle.SupportedVersion,
		"trained_on": []string{"fleet-e2e/" + salt},
	}
	for op, name := range collectives {
		doc[name] = &bundle.Collective{
			Op:           op,
			Features:     []int{0, 1, 2},
			FeatureNames: []string{"num_nodes", "ppn", "log2_msg_size"},
			Forest: &forest.Forest{
				NClasses: classes,
				Trees:    []forest.Tree{{Nodes: []forest.Node{{F: -1, D: dist}}}},
			},
			CVAUC: 0.9,
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal const bundle: %v", err)
	}
	if _, err := bundle.Parse(data); err != nil {
		t.Fatalf("const bundle does not parse: %v", err)
	}
	return data
}

// newFleetCtl stands up a real control plane with stableData seeded as
// the fleet-wide stable hash.
func newFleetCtl(t *testing.T, stableData []byte, cfg controlplane.RolloutConfig) (url string, store *controlplane.Store, ro *controlplane.Rollout, stable string) {
	t.Helper()
	store, err := controlplane.NewStore("")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	ro = controlplane.NewRollout(store, cfg)
	ts := httptest.NewServer(controlplane.NewServer(store, ro, obs.NewForTest(), controlplane.ServerConfig{}))
	t.Cleanup(ts.Close)
	stable, _, err = store.Put(stableData)
	if err != nil {
		t.Fatalf("seed stable bundle: %v", err)
	}
	if err := ro.SetStable(stable); err != nil {
		t.Fatalf("SetStable: %v", err)
	}
	return ts.URL, store, ro, stable
}

// fleetReplica is one replica stack built by serve.New exactly as
// pmlmpi-server -controlplane builds it (shadow, SLO tracker, model health,
// agent, admin surface). The agent's poll loop is parked; tests drive it
// through Tick.
type fleetReplica struct {
	id string
	*serve.Stack
}

func newFleetReplica(t *testing.T, ctlURL, id string, soak time.Duration) *fleetReplica {
	t.Helper()
	cfg := serve.Defaults()
	cfg.Bundle = filepath.Join(t.TempDir(), "absent.json") // boots bundle-less, like fleet-smoke
	cfg.ControlPlane, cfg.ReplicaID = ctlURL, id
	cfg.ManifestPoll = time.Hour
	cfg.StageSoak = soak
	cfg.ShadowFraction = 1
	cfg.MinShadowSamples = 8
	return &fleetReplica{id: id, Stack: newStack(t, cfg)}
}

// newStack builds a serving stack that closes with the test.
func newStack(t *testing.T, cfg serve.Config) *serve.Stack {
	t.Helper()
	st, err := serve.New(cfg, obs.NewForTest())
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func (r *fleetReplica) activeHash() string {
	if g := r.Registry.ActiveGeneration(); g != nil {
		return g.Hash()
	}
	return ""
}

// feedSelects drives live decisions through the replica's selector so
// shadow evaluation accumulates candidate evidence. Features vary per
// call to look like real traffic; predictions are constant regardless.
func (r *fleetReplica) feedSelects(ctx context.Context, t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		feats := map[string]float64{
			"num_nodes":     float64(2 + i%14),
			"ppn":           float64(1 + i%8),
			"log2_msg_size": float64(4 + i%20),
		}
		if _, err := r.Selector.Select(ctx, "allreduce", feats); err != nil {
			t.Fatalf("replica %s select: %v", r.id, err)
		}
	}
}

const rolloutDeadline = 30 * time.Second

// fleetRolloutConfig gates rollouts on the same thresholds the agents
// soak with, so both layers judge candidates consistently.
func fleetRolloutConfig() controlplane.RolloutConfig {
	return controlplane.RolloutConfig{
		CanaryPercent:    25, // 3 replicas -> 1-replica canary ring
		MinAgreement:     0.9,
		MinShadowSamples: 8,
		ReplicaTTL:       time.Minute,
	}
}

// TestFleetStagedRolloutPromotes walks the happy path end to end: three
// replicas bootstrap from the control plane, a salt-only candidate (same
// predictions, new hash) rolls out canary-first, soaks with perfect
// shadow agreement, and promotes ring by ring until the fleet converges
// and the candidate becomes stable. While the rollout is in the canary
// stage, non-canary replicas must keep serving the old stable.
func TestFleetStagedRolloutPromotes(t *testing.T) {
	cols := []string{"allreduce"}
	stableData := constBundleJSON(t, cols, 0, "stable-a")
	candData := constBundleJSON(t, cols, 0, "candidate-b")

	url, store, ro, stable := newFleetCtl(t, stableData, fleetRolloutConfig())
	reps := []*fleetReplica{
		newFleetReplica(t, url, "r0", 100*time.Millisecond),
		newFleetReplica(t, url, "r1", 100*time.Millisecond),
		newFleetReplica(t, url, "r2", 100*time.Millisecond),
	}
	ctx := context.Background()

	// Bootstrap: every replica adopts the stable hash (two ticks for the
	// desired-hash debounce, one more for the heartbeat to confirm).
	for i := 0; i < 3; i++ {
		for _, r := range reps {
			r.Agent.Tick(ctx)
		}
	}
	for _, r := range reps {
		if r.activeHash() != stable {
			t.Fatalf("replica %s bootstrapped to %q, want stable", r.id, r.activeHash())
		}
	}
	// Ring assignment is deterministic: sorted IDs, first ceil(25% of 3)=1
	// is the canary.
	for _, ri := range ro.Snapshot().Replicas {
		want := controlplane.RingFleet
		if ri.ReplicaID == "r0" {
			want = controlplane.RingCanary
		}
		if ri.Ring != want {
			t.Fatalf("replica %s in ring %s, want %s", ri.ReplicaID, ri.Ring, want)
		}
	}

	// Live traffic before the rollout, then a heartbeat: the control plane
	// baselines each replica's select p99 when the rollout starts.
	for _, r := range reps {
		r.feedSelects(ctx, t, 2)
		r.Agent.Tick(ctx)
	}

	cand, _, err := store.Put(candData)
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	if cand == stable {
		t.Fatal("salt did not change the bundle hash")
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start rollout: %v", err)
	}
	// The p99 rollback gate's inputs, on the /debug/rollout payload: every
	// heartbeat carries a select p99 and the rollout baselined it.
	for _, ri := range ro.Snapshot().Replicas {
		if ri.Heartbeat.SelectP99US <= 0 || ri.BaselineP99 <= 0 {
			t.Errorf("replica %s: heartbeat select_p99_us = %v, baseline_p99_us = %v; want both > 0",
				ri.ReplicaID, ri.Heartbeat.SelectP99US, ri.BaselineP99)
		}
	}

	sawCanary, sawFleet := false, false
	deadline := time.Now().Add(rolloutDeadline)
	for {
		for _, r := range reps {
			r.Agent.Tick(ctx)
			r.feedSelects(ctx, t, 2)
		}
		snap := ro.Snapshot()
		switch snap.State {
		case controlplane.StateCanary:
			sawCanary = true
			// The candidate is only exposed to the canary ring: r1/r2
			// must still be serving the old stable generation.
			for _, r := range reps[1:] {
				if r.activeHash() != stable {
					t.Fatalf("non-canary replica %s serves %q during canary stage", r.id, r.activeHash())
				}
			}
		case controlplane.StateFleet:
			sawFleet = true
		case controlplane.StateRolledBack:
			t.Fatalf("rollout rolled back: %s", snap.RollbackReason)
		case controlplane.StateDone:
			if snap.StableHash != cand {
				t.Fatalf("done with stable %q, want candidate", snap.StableHash)
			}
			for _, r := range reps {
				if r.activeHash() != cand {
					t.Fatalf("replica %s serves %q after done, want candidate", r.id, r.activeHash())
				}
			}
			if !sawCanary || !sawFleet {
				t.Fatalf("rollout skipped stages: canary=%v fleet=%v", sawCanary, sawFleet)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout stuck in state %s after %s", snap.State, rolloutDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetAutoRollbackNeverServesBadCandidate rolls out a candidate
// that disagrees with the stable model on every decision. The canary
// soaks it against live traffic, shadow agreement lands at exactly 0.0,
// the replica rejects it, and the control plane rolls the fleet back.
// The invariant under test: at no point does ANY replica — canary
// included, since rejection fires before the soak deadline — serve the
// bad hash, and non-canary replicas never even see it as a candidate.
func TestFleetAutoRollbackNeverServesBadCandidate(t *testing.T) {
	cols := []string{"allreduce"}
	stableData := constBundleJSON(t, cols, 0, "stable-a")
	badData := constBundleJSON(t, cols, 1, "bad-c") // flipped class: 0.0 agreement

	url, store, ro, stable := newFleetCtl(t, stableData, fleetRolloutConfig())
	// Soak of an hour: the deadline's thin-evidence promote can never
	// fire, so an explicit shadow rejection is the only way forward.
	reps := []*fleetReplica{
		newFleetReplica(t, url, "r0", time.Hour),
		newFleetReplica(t, url, "r1", time.Hour),
		newFleetReplica(t, url, "r2", time.Hour),
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, r := range reps {
			r.Agent.Tick(ctx)
		}
	}

	bad, _, err := store.Put(badData)
	if err != nil {
		t.Fatalf("Put bad candidate: %v", err)
	}
	if err := ro.Start(bad); err != nil {
		t.Fatalf("Start rollout: %v", err)
	}

	sawSoak := false
	deadline := time.Now().Add(rolloutDeadline)
	for {
		for _, r := range reps {
			r.Agent.Tick(ctx)
			r.feedSelects(ctx, t, 2)
		}
		// The core invariant, checked on every iteration.
		for _, r := range reps {
			if r.activeHash() != stable {
				t.Fatalf("replica %s serves %q mid-rollout, must stay on stable", r.id, r.activeHash())
			}
		}
		// Non-canary replicas must never stage the candidate at all.
		for _, r := range reps[1:] {
			if st := r.Agent.Status(); st.CandidateHash == bad {
				t.Fatalf("non-canary replica %s staged the bad candidate", r.id)
			}
		}
		if st := reps[0].Agent.Status(); st.CandidateHash == bad {
			sawSoak = true
		}
		snap := ro.Snapshot()
		if snap.State == controlplane.StateRolledBack {
			if snap.StableHash != stable {
				t.Fatalf("rolled back to %q, want original stable", snap.StableHash)
			}
			if snap.RollbackReason == "" {
				t.Fatal("rollback recorded no reason")
			}
			if !sawSoak {
				t.Fatal("canary never soaked the candidate; rollback came from the wrong path")
			}
			break
		}
		if snap.State == controlplane.StateDone {
			t.Fatal("bad candidate was promoted to the fleet")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rollback after %s (state %s)", rolloutDeadline, snap.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Settle: replicas re-adopt the stable manifest; the sticky rejection
	// must not disturb serving.
	for i := 0; i < 4; i++ {
		for _, r := range reps {
			r.Agent.Tick(ctx)
		}
	}
	for _, r := range reps {
		if r.activeHash() != stable {
			t.Fatalf("replica %s not on stable after rollback settle", r.id)
		}
	}
}

// newServeStack is one standalone serving node behind a listener.
func newServeStack(t *testing.T, bundleData []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServeHandler(t, bundleData, 0))
	t.Cleanup(ts.Close)
	return ts
}

// newServeHandler is the serving node itself, without a listener, with a
// decision cache when cacheEntries > 0.
func newServeHandler(t *testing.T, bundleData []byte, cacheEntries int) http.Handler {
	t.Helper()
	cfg := serve.Defaults()
	cfg.Bundle = filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(cfg.Bundle, bundleData, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.CacheEntries = cacheEntries
	return newStack(t, cfg).Handler
}

// TestGatewayLoadgenTallyMatchesSingleServer replays the same seeded
// workload against a single server and against a gateway fronting three
// replicas of the same bundle, and asserts the per-collective selection
// tallies are identical: partitioning re-routes requests but neither
// drops nor duplicates any.
func TestGatewayLoadgenTallyMatchesSingleServer(t *testing.T) {
	bundleData, err := synth.JSON(synth.Config{Seed: 7, Collectives: []string{"allgather", "broadcast"}})
	if err != nil {
		t.Fatalf("synth bundle: %v", err)
	}

	single := newServeStack(t, bundleData)

	var specs []gateway.ReplicaSpec
	for _, id := range []string{"r0", "r1", "r2"} {
		specs = append(specs, gateway.ReplicaSpec{ID: id, URL: newServeStack(t, bundleData).URL})
	}
	gw, err := gateway.New(obs.NewForTest(), gateway.Config{Replicas: specs, MaxAttempts: 3})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	gwts := httptest.NewServer(gw)
	t.Cleanup(gwts.Close)

	ctx := context.Background()
	opts := loadgen.Options{
		Seed:     11,
		QPS:      400,
		Duration: 500 * time.Millisecond,
		Warmup:   0,
		Workers:  6,
	}

	soloOpts := opts
	soloOpts.BaseURL = single.URL
	soloRep, err := loadgen.Run(ctx, soloOpts)
	if err != nil {
		t.Fatalf("single-server run: %v", err)
	}

	gwOpts := opts
	gwOpts.BaseURL = gwts.URL
	gwOpts.TargetMode = loadgen.ModeGateway
	gwRep, err := loadgen.Run(ctx, gwOpts)
	if err != nil {
		t.Fatalf("gateway run: %v", err)
	}

	if soloRep.Config.SequenceHash != gwRep.Config.SequenceHash {
		t.Fatalf("sequence hashes differ: %s vs %s — gateway mode perturbed the workload",
			soloRep.Config.SequenceHash, gwRep.Config.SequenceHash)
	}
	if soloRep.Client.Errors != 0 || gwRep.Client.Errors != 0 {
		t.Fatalf("errors: solo=%d gateway=%d, want 0", soloRep.Client.Errors, gwRep.Client.Errors)
	}
	if gwRep.Config.TargetMode != loadgen.ModeGateway || gwRep.Gateway == nil {
		t.Fatalf("gateway run missing gateway section (mode %q)", gwRep.Config.TargetMode)
	}

	if !reflect.DeepEqual(gwRep.Gateway.SelectionsByCollective, soloRep.Delta.SelectionsByCollective) {
		t.Fatalf("selection tallies diverge:\n gateway: %v\n single:  %v",
			gwRep.Gateway.SelectionsByCollective, soloRep.Delta.SelectionsByCollective)
	}

	served := 0
	for _, r := range gwRep.Gateway.Replicas {
		if r.Requests > 0 {
			served++
		}
		if r.Errors != 0 {
			t.Fatalf("replica %s recorded %d proxy errors on a healthy fleet", r.ID, r.Errors)
		}
	}
	if served < 2 {
		t.Fatalf("partitioning sent traffic to only %d replica(s); want spread across at least 2", served)
	}
}
