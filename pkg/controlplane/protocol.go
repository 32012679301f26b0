// Package controlplane is the fleet side of PML-MPI bundle distribution:
// a content-addressed bundle store keyed by the same SHA-256 generation
// hash the registry computes, a per-ring manifest replicas poll to learn
// the desired generation, heartbeat ingestion carrying each replica's
// serving state and model-health evidence, and a staged-rollout state
// machine (canary ring first, fleet on healthy heartbeats, auto-rollback
// on degraded shadow agreement, drift, or latency).
//
// The protocol is pull-based and stateless on the wire: replicas poll
// GET /v1/manifest (cheap 304 via ETag in steady state), fetch missing
// content from GET /v1/bundles/{hash}, and report POST /v1/heartbeat.
// The control plane never dials a replica.
package controlplane

import "fmt"

// Ring names. Every registered replica belongs to exactly one ring,
// assigned deterministically by the control plane: replica ids sort
// lexicographically and the first ceil(N * CanaryPercent / 100) (at least
// one) form the canary ring; the rest are the fleet ring.
const (
	RingCanary = "canary"
	RingFleet  = "fleet"
)

// Rollout states, as reported in the manifest and on /debug/rollout.
const (
	// StateIdle: no rollout has ever been started; every ring wants the
	// stable hash.
	StateIdle = "idle"
	// StateCanary: the candidate is desired on the canary ring only.
	StateCanary = "canary"
	// StateFleet: canary heartbeats were healthy; the candidate is desired
	// fleet-wide but not every replica has confirmed serving it yet.
	StateFleet = "fleet"
	// StateDone: every replica confirmed the candidate; it is the new
	// stable hash.
	StateDone = "done"
	// StateRolledBack: the candidate was withdrawn; every ring wants the
	// previous stable hash again.
	StateRolledBack = "rolled_back"
)

// Candidate statuses a replica reports for the bundle it most recently
// staged from the control plane.
const (
	// CandidateNone: no candidate in flight.
	CandidateNone = "none"
	// CandidateSoaking: staged and shadow-evaluating against live traffic.
	CandidateSoaking = "soaking"
	// CandidatePromoted: the candidate passed the local soak gate and is
	// now the active generation.
	CandidatePromoted = "promoted"
	// CandidateRejected: the manifest's ShadowPolicy rejected the
	// replica's shadow evidence; the candidate was never promoted.
	CandidateRejected = "rejected"
)

// Manifest is the GET /v1/manifest response: the desired serving state for
// one ring. Replicas poll it (If-None-Match with the previous ETag makes
// the steady state a body-less 304) and reconcile their registry toward
// DesiredHash.
type Manifest struct {
	// Ring is the polling replica's assigned ring (observers without a
	// replica id see the fleet ring).
	Ring string `json:"ring"`
	// DesiredHash is the hex SHA-256 of the bundle this ring should serve.
	// Empty until a bundle has been uploaded or seeded.
	DesiredHash string `json:"desired_hash"`
	// DesiredGeneration is the control plane's monotonic upload sequence
	// number for DesiredHash — a fleet-wide ordering hint, distinct from
	// each replica's local registry generation ids.
	DesiredGeneration uint64 `json:"desired_generation"`
	// StableHash is the last fleet-wide accepted bundle.
	StableHash string `json:"stable_hash"`
	// RolloutState is the rollout state machine's current state.
	RolloutState string `json:"rollout_state"`
	// PollSeconds is the control plane's advisory poll interval.
	PollSeconds float64 `json:"poll_seconds,omitempty"`
	// ShadowPolicy is the rule a replica judges its soaking candidate's
	// shadow evidence with: the same rule the rollout applies to heartbeats.
	ShadowPolicy ShadowPolicy `json:"shadow_policy"`
}

// ShadowPolicy is the one promotion rule for live shadow evidence. The
// control plane owns it (RolloutConfig.Shadow) and ships it in every
// manifest, so a replica's soak and the rollout's heartbeat gate judge a
// candidate identically.
type ShadowPolicy struct {
	// MinAgreement is the lowest candidate/incumbent agreement rate a
	// candidate may hold once MinSamples comparisons exist.
	MinAgreement float64 `json:"min_agreement"`
	// MinSamples is how many shadow comparisons evidence needs before its
	// agreement rate is judged at all.
	MinSamples uint64 `json:"min_samples"`
}

// DefaultShadowPolicy is the policy a RolloutConfig that sets none gets.
func DefaultShadowPolicy() ShadowPolicy {
	return ShadowPolicy{MinAgreement: 0.9, MinSamples: 20}
}

// Reject reports whether agreement over samples shadow comparisons vetoes
// the candidate, and why. Evidence thinner than MinSamples never rejects:
// a soak that reaches its deadline on thin evidence promotes, and the
// rollout keeps judging the heartbeats that follow.
func (p ShadowPolicy) Reject(samples uint64, agreement float64) (bool, string) {
	if samples >= p.MinSamples && agreement < p.MinAgreement {
		return true, fmt.Sprintf("shadow agreement %.3f below %.3f over %d samples",
			agreement, p.MinAgreement, samples)
	}
	return false, ""
}

// Heartbeat is the POST /v1/heartbeat request body: one replica's serving
// state plus the evidence the rollout controller gates on.
type Heartbeat struct {
	// ReplicaID uniquely names the replica; ring assignment and heartbeat
	// bookkeeping key on it.
	ReplicaID string `json:"replica_id"`
	// Addr is the replica's advertised base URL (for operators and
	// gateway discovery); optional.
	Addr string `json:"addr,omitempty"`
	// Ring echoes the ring from the last manifest the replica saw.
	Ring string `json:"ring,omitempty"`

	// ActiveGeneration / ActiveHash identify the local registry generation
	// currently serving Select traffic.
	ActiveGeneration uint64 `json:"active_generation"`
	ActiveHash       string `json:"active_hash"`

	// CandidateHash / CandidateStatus / CandidateSamples /
	// CandidateAgreement describe the most recent control-plane candidate
	// the replica staged: its shadow-evaluation evidence while soaking and
	// the verdict (promoted / rejected).
	CandidateHash      string  `json:"candidate_hash,omitempty"`
	CandidateStatus    string  `json:"candidate_status"`
	CandidateSamples   uint64  `json:"candidate_samples,omitempty"`
	CandidateAgreement float64 `json:"candidate_agreement,omitempty"`

	// DriftStatus / LowMarginRate mirror the model-health observatory's
	// summary ("ok", "warn", "alert", "collecting", "no_reference").
	DriftStatus   string  `json:"drift_status,omitempty"`
	LowMarginRate float64 `json:"low_margin_rate,omitempty"`
	// SelectP99US is the replica's rolling select latency p99 in
	// microseconds (0 when unknown / idle).
	SelectP99US float64 `json:"select_p99_us,omitempty"`
	// UptimeSeconds is the replica process uptime.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
}

// HeartbeatAck is the POST /v1/heartbeat response.
type HeartbeatAck struct {
	// Ring is the control plane's current ring assignment for the replica
	// (authoritative; may differ from the echoed ring right after the
	// replica set changes).
	Ring string `json:"ring"`
	// RolloutState lets a replica log state transitions without an extra
	// manifest poll.
	RolloutState string `json:"rollout_state"`
}
