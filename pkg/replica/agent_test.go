package replica

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/controlplane"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
)

// newCtl spins up a real control plane over httptest with one stable
// bundle seeded, returning the server URL, the rollout controller, and
// the stable hash.
func newCtl(t *testing.T, cfg controlplane.RolloutConfig) (string, *controlplane.Store, *controlplane.Rollout, string) {
	t.Helper()
	store, _ := controlplane.NewStore("")
	ro := controlplane.NewRollout(store, cfg)
	srv := controlplane.NewServer(store, ro, obs.NewForTest(), controlplane.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	stable, _, err := store.Put(bundleJSON(t, 1))
	if err != nil {
		t.Fatalf("seed stable bundle: %v", err)
	}
	if err := ro.SetStable(stable); err != nil {
		t.Fatalf("SetStable: %v", err)
	}
	return ts.URL, store, ro, stable
}

func newAgent(t *testing.T, url string, reg *registry.Registry, o *obs.Obs) *Agent {
	t.Helper()
	a, err := NewAgent(o, AgentConfig{
		ControlPlane: url,
		ReplicaID:    "r-test",
		Registry:     reg,
		PollInterval: 10 * time.Millisecond,
		StageSoak:    -1, // no shadow configured: promote immediately
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a
}

func TestAgentBootstrapsFromControlPlane(t *testing.T) {
	url, _, ro, stable := newCtl(t, controlplane.RolloutConfig{})
	o := obs.NewForTest()
	reg := registry.New(o, registry.Config{})
	a := newAgent(t, url, reg, o)

	ctx := context.Background()
	// Two ticks: the desired-hash debounce needs two observations.
	a.Tick(ctx)
	a.Tick(ctx)

	g := reg.ActiveGeneration()
	if g == nil || g.Hash() != stable {
		t.Fatalf("active generation = %v, want stable hash %s", g, stable[:12])
	}
	// The heartbeat registered us with the control plane.
	snap := ro.Snapshot()
	if len(snap.Replicas) != 1 || snap.Replicas[0].ReplicaID != "r-test" {
		t.Fatalf("control plane replicas = %+v", snap.Replicas)
	}
	if snap.Replicas[0].Heartbeat.ActiveHash != stable {
		t.Fatalf("heartbeat active hash = %s, want stable", snap.Replicas[0].Heartbeat.ActiveHash[:12])
	}
	st := a.Status()
	if st.DesiredHash != stable || st.Ring != controlplane.RingCanary {
		t.Fatalf("Status = %+v, want desired=stable ring=canary", st)
	}
	// Steady state: further polls are conditional 304s.
	before := a.polls.Value("not_modified")
	a.Tick(ctx)
	if a.polls.Value("not_modified") != before+1 {
		t.Fatal("steady-state poll was not a 304")
	}
}

func TestAgentFollowsRolloutAndPromotesResidentOnRevert(t *testing.T) {
	url, store, ro, stable := newCtl(t, controlplane.RolloutConfig{})
	o := obs.NewForTest()
	reg := registry.New(o, registry.Config{})
	a := newAgent(t, url, reg, o)
	ctx := context.Background()
	a.Tick(ctx)
	a.Tick(ctx)

	// Roll out a new bundle. This agent is the whole fleet, so its
	// confirmations drive the rollout to done.
	cand, _, err := store.Put(bundleJSON(t, 2))
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 6; i++ {
		a.Tick(ctx)
	}
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != cand {
		t.Fatal("agent did not adopt the rolled-out candidate")
	}
	if s := ro.Snapshot(); s.State != controlplane.StateDone || s.StableHash != cand {
		t.Fatalf("rollout state = %s stable = %s, want done/%s", s.State, s.StableHash[:12], cand[:12])
	}

	// Revert: a rollout back to the original hash must reuse the resident
	// generation — no network pull.
	pullsBefore := a.pulls.Value("ok")
	if err := ro.Start(stable); err != nil {
		t.Fatalf("Start revert: %v", err)
	}
	for i := 0; i < 6; i++ {
		a.Tick(ctx)
	}
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != stable {
		t.Fatal("agent did not revert to the stable hash")
	}
	if a.pulls.Value("ok") != pullsBefore {
		t.Fatalf("revert re-pulled the bundle (%v pulls, had %v)", a.pulls.Value("ok"), pullsBefore)
	}
}

// TestAgentRejectsHashMismatch serves bytes whose content hash disagrees
// with the manifest's desired hash — a corrupt or hostile control plane —
// and asserts the agent never stages them.
func TestAgentRejectsHashMismatch(t *testing.T) {
	good := bundleJSON(t, 1)
	evil := bundleJSON(t, 2)
	goodHash := controlplane.HashOf(good)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/manifest", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(controlplane.Manifest{
			Ring: controlplane.RingFleet, DesiredHash: goodHash, RolloutState: controlplane.StateIdle,
		})
	})
	mux.HandleFunc("/v1/bundles/", func(w http.ResponseWriter, r *http.Request) {
		w.Write(evil) // wrong bytes for the advertised hash
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(controlplane.HeartbeatAck{Ring: controlplane.RingFleet})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	o := obs.NewForTest()
	reg := registry.New(o, registry.Config{})
	a := newAgent(t, ts.URL, reg, o)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		a.Tick(ctx)
	}
	if reg.ActiveGeneration() != nil {
		t.Fatal("agent promoted a bundle whose hash did not match the manifest")
	}
	if a.pulls.Value("invalid") == 0 {
		t.Fatal("hash mismatch was not counted as an invalid pull")
	}
}

// deadlineOnly is a control plane whose shadow policy needs more evidence
// than any test produces, so the agreement gate can never trip — only the
// soak deadline (and the withdrawal checks) decide.
var deadlineOnly = controlplane.RolloutConfig{Shadow: controlplane.ShadowPolicy{MinSamples: 1 << 20}}

// newSoakingAgent builds an agent with shadow evaluation and a manual
// clock, so soak deadlines are driven by the test instead of wall time.
// The agent sets no threshold: the manifest's shadow policy judges.
func newSoakingAgent(t *testing.T, url string, clock *time.Time) (*Agent, *registry.Registry) {
	t.Helper()
	o := obs.NewForTest()
	sh := registry.NewShadow(o, registry.ShadowConfig{Fraction: 1})
	reg := registry.New(o, registry.Config{Shadow: sh})
	a, err := NewAgent(o, AgentConfig{
		ControlPlane: url,
		ReplicaID:    "r-test",
		Registry:     reg,
		Shadow:       sh,
		PollInterval: 10 * time.Millisecond,
		StageSoak:    10 * time.Second,
		Now:          func() time.Time { return *clock },
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a, reg
}

// TestAgentAbortsWithdrawnCandidateMidSoak covers the operator-rollback
// race: the control plane withdraws a candidate while it is still
// soaking on this replica. The agent must abort the soak — the deadline
// must never promote the withdrawn hash — without marking it rejected,
// so a later re-rollout of the same hash soaks afresh.
func TestAgentAbortsWithdrawnCandidateMidSoak(t *testing.T) {
	url, store, ro, stable := newCtl(t, deadlineOnly)
	clock := time.Unix(1_700_000_000, 0)
	a, reg := newSoakingAgent(t, url, &clock)
	ctx := context.Background()

	a.Tick(ctx)
	a.Tick(ctx)
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != stable {
		t.Fatal("agent did not bootstrap to stable")
	}

	cand, _, err := store.Put(bundleJSON(t, 2))
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	a.Tick(ctx)
	a.Tick(ctx)
	if st := a.Status(); st.CandidateHash != cand || st.CandidateStatus != controlplane.CandidateSoaking {
		t.Fatalf("candidate not soaking after rollout start: %+v", st)
	}

	// The operator rolls back while the candidate soaks.
	if err := ro.Rollback("operator rollback"); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	a.Tick(ctx)
	if st := a.Status(); st.CandidateHash != "" {
		t.Fatalf("candidate not aborted after rollback: %+v", st)
	}

	// Even long past the soak deadline nothing promotes.
	clock = clock.Add(time.Minute)
	a.Tick(ctx)
	a.Tick(ctx)
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != stable {
		t.Fatal("agent promoted a withdrawn candidate")
	}
	if v := a.verdicts.Value("aborted"); v != 1 {
		t.Fatalf("aborted verdicts = %v, want 1", v)
	}
	if v := a.verdicts.Value("rejected"); v != 0 {
		t.Fatalf("rejected verdicts = %v, want 0 (abort is not a judgment)", v)
	}

	// A re-rollout of the same hash is not sticky-blocked: the agent
	// re-pulls and re-soaks from scratch.
	if err := ro.Start(cand); err != nil {
		t.Fatalf("re-Start: %v", err)
	}
	a.Tick(ctx)
	a.Tick(ctx)
	if st := a.Status(); st.CandidateHash != cand || st.CandidateStatus != controlplane.CandidateSoaking {
		t.Fatalf("re-rollout did not restage the candidate: %+v", st)
	}
	clock = clock.Add(11 * time.Second)
	a.Tick(ctx)
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != cand {
		t.Fatal("re-rolled-out candidate did not promote at the soak deadline")
	}
}

// TestAgentSoaksWithManifestShadowPolicy: the agent sets no threshold of
// its own, so the control plane's policy, carried by the manifest, judges
// the soak. Agreement 0.85 over 20 samples is below the 0.9 default but
// passes the ctl's 0.8 floor, and the candidate promotes at the deadline.
func TestAgentSoaksWithManifestShadowPolicy(t *testing.T) {
	url, store, ro, stable := newCtl(t, controlplane.RolloutConfig{
		Shadow: controlplane.ShadowPolicy{MinAgreement: 0.8},
	})
	clock := time.Unix(1_700_000_000, 0)
	a, reg := newSoakingAgent(t, url, &clock)
	ctx := context.Background()
	a.Tick(ctx)
	a.Tick(ctx)
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != stable {
		t.Fatal("agent did not bootstrap to stable")
	}

	cand, _, err := store.Put(bundleJSON(t, 2))
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	a.Tick(ctx)
	a.Tick(ctx)
	if st := a.Status(); st.CandidateHash != cand || st.CandidateStatus != controlplane.CandidateSoaking {
		t.Fatalf("candidate not soaking after rollout start: %+v", st)
	}

	// Mirror 20 live decisions: every candidate answer is named "cand",
	// and 17 of the live answers match it.
	sh := a.cfg.Shadow
	sh.SetNamer(func(string, int) string { return "cand" })
	sh.Start()
	t.Cleanup(sh.Stop)
	feats := make(map[string]float64, len(bundle.CanonicalFeatures))
	for _, name := range bundle.CanonicalFeatures {
		feats[name] = 1
	}
	for i := 0; i < 20; i++ {
		live := "cand"
		if i%7 == 0 { // i = 0, 7, 14
			live = "other"
		}
		sh.Offer("allgather", feats, live, 0, 1000)
	}
	waitFor(t, 5*time.Second, "20 shadow samples", func() bool {
		return sh.Report().Collectives["allgather"].Samples == 20
	})

	a.Tick(ctx)
	if st := a.Status(); st.CandidateStatus != controlplane.CandidateSoaking {
		t.Fatalf("agreement 0.85 against the manifest's 0.8 floor: status %q, want soaking", st.CandidateStatus)
	}
	clock = clock.Add(11 * time.Second)
	a.Tick(ctx)
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != cand {
		t.Fatalf("candidate did not promote at the soak deadline (status %+v)", a.Status())
	}
	snap := ro.Snapshot()
	if snap.State == controlplane.StateRolledBack {
		t.Fatalf("control plane rolled back: %s", snap.RollbackReason)
	}
	if hb := snap.Replicas[0].Heartbeat; hb.CandidateSamples != 20 || hb.CandidateAgreement != 0.85 {
		t.Fatalf("heartbeat evidence %d samples at %v, want 20 at 0.85", hb.CandidateSamples, hb.CandidateAgreement)
	}
}

// TestAgentRevertsAfterStaleManifestPromote covers the uglier variant:
// the rollback lands while the control plane is unreachable, so the
// replica's last-known manifest still desires the candidate when the
// soak deadline promotes it. Once polling recovers the replica must
// converge back to the stable hash rather than serving the rolled-back
// bundle forever.
func TestAgentRevertsAfterStaleManifestPromote(t *testing.T) {
	store, _ := controlplane.NewStore("")
	ro := controlplane.NewRollout(store, deadlineOnly)
	ctl := controlplane.NewServer(store, ro, obs.NewForTest(), controlplane.ServerConfig{})
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "control plane unreachable", http.StatusServiceUnavailable)
			return
		}
		ctl.ServeHTTP(w, r)
	}))
	defer ts.Close()
	stable, _, err := store.Put(bundleJSON(t, 1))
	if err != nil {
		t.Fatalf("seed stable: %v", err)
	}
	if err := ro.SetStable(stable); err != nil {
		t.Fatalf("SetStable: %v", err)
	}

	clock := time.Unix(1_700_000_000, 0)
	a, reg := newSoakingAgent(t, ts.URL, &clock)
	ctx := context.Background()
	a.Tick(ctx)
	a.Tick(ctx)

	cand, _, err := store.Put(bundleJSON(t, 2))
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	a.Tick(ctx)
	a.Tick(ctx)
	if st := a.Status(); st.CandidateStatus != controlplane.CandidateSoaking {
		t.Fatalf("candidate not soaking: %+v", st)
	}

	// The control plane goes dark, then rolls back where the replica
	// cannot see it; the soak deadline passes during the outage.
	down.Store(true)
	if err := ro.Rollback("operator rollback during outage"); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	clock = clock.Add(30 * time.Second)
	a.Tick(ctx)
	// With only a stale manifest that still desires the candidate, the
	// deadline promote fires — benefit of the doubt.
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != cand {
		t.Fatal("deadline promote with a stale manifest did not fire")
	}

	// Polling recovers: the replica must revert to the stable hash.
	down.Store(false)
	for i := 0; i < 6; i++ {
		clock = clock.Add(5 * time.Second) // clear any armed backoff
		a.Tick(ctx)
	}
	if g := reg.ActiveGeneration(); g == nil || g.Hash() != stable {
		got := ""
		if g := reg.ActiveGeneration(); g != nil {
			got = g.Hash()[:12]
		}
		t.Fatalf("replica serves %q after recovery, want rolled-back stable", got)
	}
}

// TestAgentBacksOffOnControlPlaneErrors verifies failed polls arm the
// shared backoff (skipping polls until the deadline) and that recovery
// resets it.
func TestAgentBacksOffOnControlPlaneErrors(t *testing.T) {
	o := obs.NewForTest()
	reg := registry.New(o, registry.Config{})
	a, err := NewAgent(o, AgentConfig{
		ControlPlane: "http://127.0.0.1:1", // nothing listens here
		ReplicaID:    "r-test",
		Registry:     reg,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	ctx := context.Background()
	a.Tick(ctx)
	if a.polls.Value("error") != 1 {
		t.Fatalf("poll errors = %v, want 1", a.polls.Value("error"))
	}
	if a.Status().LastError == "" {
		t.Fatal("LastError empty after failed poll")
	}
	// The next tick lands inside the backoff window: no second attempt.
	a.Tick(ctx)
	if a.polls.Value("error") != 1 {
		t.Fatalf("poll errors = %v during backoff window, want still 1", a.polls.Value("error"))
	}
}
