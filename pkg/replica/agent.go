package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/controlplane"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// AgentConfig wires a replica Agent to its control plane and local
// serving stack.
type AgentConfig struct {
	// ControlPlane is the control plane's base URL (e.g. http://ctl:9100).
	ControlPlane string
	// ReplicaID uniquely names this replica to the control plane.
	ReplicaID string
	// Advertise is this replica's own base URL, reported in heartbeats for
	// operators and gateway discovery. Optional.
	Advertise string
	// Registry is the local generation store bundles are staged through.
	Registry *registry.Registry
	// Shadow, when non-nil, supplies shadow-agreement evidence during the
	// candidate soak (the registry auto-stages each pulled bundle as the
	// shadow candidate). Without it candidates promote immediately.
	Shadow *registry.Shadow
	// Health, when non-nil, feeds drift status into heartbeats.
	Health *modelhealth.Observatory
	// SLO, when non-nil, feeds the select p99 into heartbeats.
	SLO *slo.Tracker
	// PollInterval is the manifest poll (and heartbeat) cadence.
	// Default 2s.
	PollInterval time.Duration
	// StageSoak is how long a pulled candidate shadow-evaluates before the
	// promote decision. Default 10s; 0 keeps the default, negative values
	// promote immediately. The evidence is judged by the last manifest's
	// ShadowPolicy: a rejected candidate is sticky (never retried for the
	// same hash), and one with thinner evidence at the deadline promotes on
	// benefit of the doubt — the control plane still gates the fleet stage
	// on the canary's live heartbeats.
	StageSoak time.Duration
	// Client overrides the HTTP client (tests). Default: 10s timeout.
	Client *http.Client
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Status is the agent's /healthz contribution: what this node believes
// the fleet wants it to serve.
type Status struct {
	ControlPlane      string    `json:"control_plane"`
	ReplicaID         string    `json:"replica_id"`
	Ring              string    `json:"ring,omitempty"`
	RolloutState      string    `json:"rollout_state,omitempty"`
	DesiredHash       string    `json:"desired_hash,omitempty"`
	DesiredGeneration uint64    `json:"desired_generation,omitempty"`
	CandidateHash     string    `json:"candidate_hash,omitempty"`
	CandidateStatus   string    `json:"candidate_status,omitempty"`
	LastPoll          time.Time `json:"last_poll,omitempty"`
	LastError         string    `json:"last_error,omitempty"`
}

// candidateState tracks the bundle most recently pulled from the control
// plane while it soaks toward a promote/reject verdict.
type candidateState struct {
	hash      string
	genID     uint64
	deadline  time.Time
	status    string // controlplane.Candidate*
	samples   uint64
	agreement float64
}

// Agent is the replica-side fleet member: it polls the control-plane
// manifest (conditional GETs — steady state is a body-less 304), pulls
// missing bundles by content hash, verifies and stages them through the
// registry, soaks them against shadow evaluation, promotes or rejects,
// and reports heartbeats. It reuses the same Debounce as the local-disk
// FileWatcher, applied to the desired hash, so a manifest flapping
// mid-transition is never acted on.
type Agent struct {
	cfg     AgentConfig
	o       *obs.Obs
	client  *http.Client
	started time.Time

	mu        sync.Mutex
	etag      string
	manifest  controlplane.Manifest
	ring      string
	deb       Debounce[string]
	cand      *candidateState
	known     map[string]uint64 // hash -> local registry generation id
	rejected  map[string]string // hash -> rejection reason (sticky)
	lastPoll  time.Time
	lastError string

	backoff   Backoff
	failUntil time.Time

	polls      *obs.Counter // {status: ok|not_modified|error}
	pulls      *obs.Counter // {status: ok|invalid|error}
	heartbeats *obs.Counter // {status: ok|error}
	verdicts   *obs.Counter // {verdict: promoted|rejected}
}

// NewAgent builds an agent; Run starts it.
func NewAgent(o *obs.Obs, cfg AgentConfig) (*Agent, error) {
	if cfg.ControlPlane == "" {
		return nil, fmt.Errorf("replica: ControlPlane URL is required")
	}
	if cfg.ReplicaID == "" {
		return nil, fmt.Errorf("replica: ReplicaID is required")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("replica: Registry is required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	if cfg.StageSoak == 0 {
		cfg.StageSoak = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Agent{
		cfg:      cfg,
		o:        o,
		client:   client,
		started:  cfg.Now(),
		known:    make(map[string]uint64),
		rejected: make(map[string]string),
		polls: o.Registry.Counter("pmlmpi_replica_polls_total",
			"Manifest polls against the control plane, by outcome.", "status"),
		pulls: o.Registry.Counter("pmlmpi_replica_pulls_total",
			"Bundle pulls from the control plane, by outcome.", "status"),
		heartbeats: o.Registry.Counter("pmlmpi_replica_heartbeats_total",
			"Heartbeats sent to the control plane, by outcome.", "status"),
		verdicts: o.Registry.Counter("pmlmpi_replica_candidate_verdicts_total",
			"Local candidate soak verdicts.", "verdict"),
	}, nil
}

// Run polls and heartbeats until ctx is cancelled.
func (a *Agent) Run(ctx context.Context) {
	a.o.Logger.Info("replica agent started",
		"control_plane", a.cfg.ControlPlane,
		"replica_id", a.cfg.ReplicaID,
		"interval", a.cfg.PollInterval.String())
	t := time.NewTicker(a.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			a.o.Logger.Info("replica agent stopped", "replica_id", a.cfg.ReplicaID)
			return
		case <-t.C:
			a.Tick(ctx)
		}
	}
}

// Tick runs one poll-reconcile-heartbeat cycle. Exported so tests (and
// the in-process e2e) can drive the agent deterministically without a
// ticker.
func (a *Agent) Tick(ctx context.Context) {
	now := a.cfg.Now()
	a.mu.Lock()
	wait := a.failUntil.After(now)
	a.mu.Unlock()
	if !wait {
		if err := a.pollOnce(ctx); err != nil {
			a.mu.Lock()
			a.lastError = err.Error()
			a.failUntil = now.Add(a.backoff.Next())
			a.mu.Unlock()
			a.polls.Inc("error")
			a.o.Logger.Warn("replica manifest poll failed",
				"control_plane", a.cfg.ControlPlane, "error", err.Error())
		} else {
			a.mu.Lock()
			a.lastError = ""
			a.backoff.Reset()
			a.failUntil = time.Time{}
			a.mu.Unlock()
		}
	}
	a.evaluateSoak()
	if err := a.sendHeartbeat(ctx); err != nil {
		a.heartbeats.Inc("error")
		a.o.Logger.Warn("replica heartbeat failed", "error", err.Error())
	} else {
		a.heartbeats.Inc("ok")
	}
}

// pollOnce fetches the manifest (conditional on the previous ETag) and
// reconciles toward its desired hash.
func (a *Agent) pollOnce(ctx context.Context) error {
	a.mu.Lock()
	etag := a.etag
	a.mu.Unlock()

	url := fmt.Sprintf("%s/v1/manifest?replica=%s", a.cfg.ControlPlane, a.cfg.ReplicaID)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	now := a.cfg.Now()
	switch resp.StatusCode {
	case http.StatusNotModified:
		io.Copy(io.Discard, resp.Body)
		a.polls.Inc("not_modified")
		a.mu.Lock()
		a.lastPoll = now
		m := a.manifest
		a.mu.Unlock()
		// An unchanged manifest still re-observes the same desired hash,
		// completing the debounce started by the previous (200) poll.
		return a.reconcile(ctx, m)
	case http.StatusOK:
		var m controlplane.Manifest
		if err := obs.DecodeReply(resp.Body, 1<<20, &m); err != nil {
			return fmt.Errorf("decode manifest: %w", err)
		}
		a.polls.Inc("ok")
		a.mu.Lock()
		a.etag = resp.Header.Get("ETag")
		a.manifest = m
		a.ring = m.Ring
		a.lastPoll = now
		a.mu.Unlock()
		return a.reconcile(ctx, m)
	default:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("manifest poll: unexpected status %d", resp.StatusCode)
	}
}

// reconcile drives the local registry toward the manifest's desired
// hash: debounce the desired value, then promote a resident generation
// or pull-verify-stage a missing one.
func (a *Agent) reconcile(ctx context.Context, m controlplane.Manifest) error {
	desired := m.DesiredHash
	if desired == "" {
		return nil
	}
	// A soaking candidate the manifest no longer desires was withdrawn
	// mid-soak (operator rollback, or another replica tripping a fleet
	// gate): abort it before anything else, so the soak deadline can
	// never promote a hash the control plane has already walked back.
	// This must run before the active==desired early return — on a
	// rollback the replica is typically still serving the stable hash.
	a.abortWithdrawnCandidate(desired)

	active := a.cfg.Registry.ActiveGeneration()
	if active != nil && active.Hash() == desired {
		a.mu.Lock()
		a.deb.Observe(desired) // keep the debounce in sync with reality
		a.mu.Unlock()
		return nil
	}

	a.mu.Lock()
	if reason, bad := a.rejected[desired]; bad {
		a.mu.Unlock()
		// Sticky: this replica already judged the hash unsafe; the
		// heartbeat keeps reporting the rejection so the control plane
		// rolls the fleet back.
		_ = reason
		return nil
	}
	if a.cand != nil && a.cand.hash == desired {
		a.mu.Unlock()
		return nil // already staged, soaking
	}
	adopt := a.deb.Observe(desired)
	if !adopt && a.deb.Applied() == desired {
		// The desired hash was already debounce-confirmed and adopted
		// once, yet the active generation drifted away from it (e.g. a
		// stale-manifest promote that raced a rollback). A value that
		// survived the two-observation filter before needs no second
		// soak of stability: re-adopt immediately so the replica
		// converges back instead of wedging on "already applied".
		adopt = true
	}
	knownID, resident := a.known[desired]
	a.mu.Unlock()
	if !adopt {
		return nil
	}

	// A previously vetted resident generation (the rollback path — the
	// control plane reverted to a hash we served before): promote
	// directly, no soak.
	if resident {
		if _, err := a.cfg.Registry.Promote(knownID); err == nil {
			a.mu.Lock()
			a.cand = nil
			a.mu.Unlock()
			a.o.Logger.Info("replica promoted resident generation for desired hash",
				"generation", knownID, "hash", shortHash(desired))
			return nil
		}
		// Evicted since: fall through to a fresh pull.
	}

	data, err := a.fetchBundle(ctx, desired)
	if err != nil {
		a.pulls.Inc("error")
		return err
	}
	if got := controlplane.HashOf(data); got != desired {
		a.pulls.Inc("invalid")
		return fmt.Errorf("pulled bundle hash %s does not match desired %s", shortHash(got), shortHash(desired))
	}
	gen, err := a.cfg.Registry.LoadData(data, a.cfg.ControlPlane+"/v1/bundles/"+desired)
	if err != nil {
		a.pulls.Inc("invalid")
		a.mu.Lock()
		a.rejected[desired] = err.Error()
		a.mu.Unlock()
		return fmt.Errorf("stage pulled bundle: %w", err)
	}
	a.pulls.Inc("ok")

	now := a.cfg.Now()
	a.mu.Lock()
	a.known[desired] = gen.ID()
	soak := a.cfg.StageSoak > 0 && a.cfg.Shadow != nil && a.cfg.Registry.ActiveGeneration() != nil
	if soak {
		a.cand = &candidateState{
			hash:     desired,
			genID:    gen.ID(),
			deadline: now.Add(a.cfg.StageSoak),
			status:   controlplane.CandidateSoaking,
		}
	}
	a.mu.Unlock()

	if !soak {
		// Bootstrap (no active generation yet) or no shadow evaluation
		// configured: promote immediately.
		if _, err := a.cfg.Registry.Promote(gen.ID()); err != nil {
			return fmt.Errorf("promote pulled bundle: %w", err)
		}
		a.mu.Lock()
		a.cand = &candidateState{hash: desired, genID: gen.ID(), status: controlplane.CandidatePromoted}
		a.mu.Unlock()
		a.verdicts.Inc("promoted")
		a.o.Logger.Info("replica promoted pulled bundle",
			"generation", gen.ID(), "hash", shortHash(desired))
		return nil
	}
	a.o.Logger.Info("replica staged pulled bundle for soak",
		"generation", gen.ID(), "hash", shortHash(desired), "soak", a.cfg.StageSoak.String())
	return nil
}

// evaluateSoak refreshes a soaking candidate's shadow evidence and
// settles the promote/reject verdict once the manifest's ShadowPolicy
// rejects it or the deadline passes.
func (a *Agent) evaluateSoak() {
	a.mu.Lock()
	cand := a.cand
	if cand == nil || cand.status != controlplane.CandidateSoaking {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()

	if a.cfg.Shadow != nil {
		rep := a.cfg.Shadow.Report()
		if rep.CandidateHash == cand.hash {
			var samples, agreements uint64
			for _, c := range rep.Collectives {
				samples += c.Samples
				agreements += c.Agreements
			}
			a.mu.Lock()
			cand.samples = samples
			if samples > 0 {
				cand.agreement = float64(agreements) / float64(samples)
			}
			a.mu.Unlock()
		}
	}

	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cand != cand || cand.status != controlplane.CandidateSoaking {
		return // aborted or replaced while we polled the shadow report
	}
	if reject, why := a.manifest.ShadowPolicy.Reject(cand.samples, cand.agreement); reject {
		cand.status = controlplane.CandidateRejected
		a.rejected[cand.hash] = why
		if a.cfg.Shadow != nil {
			a.cfg.Shadow.ClearCandidate()
		}
		a.verdicts.Inc("rejected")
		a.o.Logger.Warn("replica rejected candidate after soak",
			"hash", shortHash(cand.hash),
			"agreement", cand.agreement,
			"samples", cand.samples)
		return
	}
	if now.Before(cand.deadline) {
		return
	}
	if a.manifest.DesiredHash != cand.hash {
		// The manifest stopped desiring this hash while it soaked but the
		// reconcile-side abort has not caught up (e.g. polls are failing
		// and the last-known manifest already reflects the rollback).
		// Promoting now would serve a withdrawn bundle: drop the
		// candidate instead and let reconcile converge on what the
		// control plane actually wants.
		a.dropCandidateLocked("manifest no longer desires soaking candidate")
		return
	}
	// Deadline reached without the gate tripping: promote. Thin evidence
	// promotes on benefit of the doubt — the control plane still gates
	// the fleet stage on post-promotion heartbeats.
	if _, err := a.cfg.Registry.Promote(cand.genID); err != nil {
		cand.status = controlplane.CandidateRejected
		a.rejected[cand.hash] = "promote failed: " + err.Error()
		a.verdicts.Inc("rejected")
		a.o.Logger.Warn("replica candidate promote failed",
			"generation", cand.genID, "error", err.Error())
		return
	}
	cand.status = controlplane.CandidatePromoted
	a.verdicts.Inc("promoted")
	a.o.Logger.Info("replica promoted candidate after soak",
		"generation", cand.genID,
		"hash", shortHash(cand.hash),
		"agreement", cand.agreement,
		"samples", cand.samples)
}

// abortWithdrawnCandidate drops a soaking candidate whose hash the
// manifest no longer desires. Aborting is not a verdict on the bundle —
// the hash is not marked rejected — but the half-soaked generation is
// forgotten (removed from known) so a future rollout of the same hash
// starts a fresh pull-and-soak instead of taking the vetted-resident
// fast path.
func (a *Agent) abortWithdrawnCandidate(desired string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cand == nil || a.cand.status != controlplane.CandidateSoaking || a.cand.hash == desired {
		return
	}
	a.dropCandidateLocked("withdrawn by manifest, now desires " + shortHash(desired))
}

// dropCandidateLocked clears the current candidate and its shadow
// staging without judging the hash. Caller holds a.mu.
func (a *Agent) dropCandidateLocked(why string) {
	cand := a.cand
	a.cand = nil
	delete(a.known, cand.hash)
	if a.cfg.Shadow != nil {
		a.cfg.Shadow.ClearCandidate()
	}
	a.verdicts.Inc("aborted")
	a.o.Logger.Info("replica aborted soaking candidate",
		"hash", shortHash(cand.hash),
		"reason", why,
		"samples", cand.samples,
		"agreement", cand.agreement)
}

// fetchBundle pulls bundle bytes by content hash.
func (a *Agent) fetchBundle(ctx context.Context, hash string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		a.cfg.ControlPlane+"/v1/bundles/"+hash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("fetch bundle %s: status %d", shortHash(hash), resp.StatusCode)
	}
	return obs.ReadReply(resp.Body, 64<<20)
}

// sendHeartbeat reports this replica's serving state and evidence.
func (a *Agent) sendHeartbeat(ctx context.Context) error {
	hb := a.buildHeartbeat()
	body, err := json.Marshal(hb)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.cfg.ControlPlane+"/v1/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("heartbeat: status %d", resp.StatusCode)
	}
	var ack controlplane.HeartbeatAck
	if err := obs.DecodeReply(resp.Body, 1<<16, &ack); err != nil {
		return fmt.Errorf("decode heartbeat ack: %w", err)
	}
	a.mu.Lock()
	a.ring = ack.Ring
	a.mu.Unlock()
	return nil
}

// buildHeartbeat assembles the wire heartbeat from the local stack.
func (a *Agent) buildHeartbeat() controlplane.Heartbeat {
	a.mu.Lock()
	ring := a.ring
	cand := a.cand
	a.mu.Unlock()

	hb := controlplane.Heartbeat{
		ReplicaID:       a.cfg.ReplicaID,
		Addr:            a.cfg.Advertise,
		Ring:            ring,
		CandidateStatus: controlplane.CandidateNone,
		UptimeSeconds:   a.cfg.Now().Sub(a.started).Seconds(),
	}
	if g := a.cfg.Registry.ActiveGeneration(); g != nil {
		hb.ActiveGeneration = g.ID()
		hb.ActiveHash = g.Hash()
	}
	if cand != nil {
		hb.CandidateHash = cand.hash
		hb.CandidateStatus = cand.status
		hb.CandidateSamples = cand.samples
		hb.CandidateAgreement = cand.agreement
	}
	if a.cfg.Health != nil {
		sum := a.cfg.Health.Summary()
		hb.DriftStatus = sum.DriftStatus
		hb.LowMarginRate = sum.LowMarginRate
	}
	if a.cfg.SLO != nil {
		a.cfg.SLO.Refresh()
		rep := a.cfg.SLO.Report()
		if len(rep.Windows) > 0 {
			hb.SelectP99US = rep.Windows[0].Latency.P99US
		}
	}
	return hb
}

// Status reports what this node believes the fleet wants — the /healthz
// "desired" block.
func (a *Agent) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		ControlPlane:      a.cfg.ControlPlane,
		ReplicaID:         a.cfg.ReplicaID,
		Ring:              a.ring,
		RolloutState:      a.manifest.RolloutState,
		DesiredHash:       a.manifest.DesiredHash,
		DesiredGeneration: a.manifest.DesiredGeneration,
		LastPoll:          a.lastPoll,
		LastError:         a.lastError,
	}
	if a.cand != nil {
		st.CandidateHash = a.cand.hash
		st.CandidateStatus = a.cand.status
	}
	return st
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
