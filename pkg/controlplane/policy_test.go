package controlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestShadowPolicyReject(t *testing.T) {
	p := ShadowPolicy{MinAgreement: 0.9, MinSamples: 20}
	cases := []struct {
		name      string
		samples   uint64
		agreement float64
		reject    bool
	}{
		{"zero samples are not evidence", 0, 0, false},
		{"samples == MinSamples are judged", 20, 0.5, true},
		{"agreement == MinAgreement passes", 20, 0.9, false},
		{"agreement just below MinAgreement rejects", 500, 0.899, true},
		{"ample evidence above the floor passes", 500, 0.99, false},
		// Not rejecting thin evidence is what lets a soak that reaches its
		// deadline promote on benefit of the doubt.
		{"thin evidence at the soak deadline promotes", 19, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reject, why := p.Reject(tc.samples, tc.agreement)
			if reject != tc.reject {
				t.Fatalf("Reject(%d, %v) = %v (%q), want %v", tc.samples, tc.agreement, reject, why, tc.reject)
			}
			if reject != (why != "") {
				t.Fatalf("Reject(%d, %v) reason %q does not match verdict %v", tc.samples, tc.agreement, why, reject)
			}
		})
	}
}

func TestRolloutConfigValidate(t *testing.T) {
	if err := (RolloutConfig{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) does not validate: %v", err)
	}
	ctlDefaults := RolloutConfig{CanaryPercent: 25, Shadow: DefaultShadowPolicy(), ReplicaTTL: time.Minute}
	if err := ctlDefaults.Validate(); err != nil {
		t.Fatalf("pmlmpi-ctl defaults do not validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*RolloutConfig)
		want   []string // fields named by the error
	}{
		{"canary-percent above 100", func(c *RolloutConfig) { c.CanaryPercent = 250 }, []string{"CanaryPercent"}},
		{"min-agreement as a percentage", func(c *RolloutConfig) { c.Shadow.MinAgreement = 95 }, []string{"Shadow.MinAgreement"}},
		{"min-agreement NaN", func(c *RolloutConfig) { c.Shadow.MinAgreement = math.NaN() }, []string{"Shadow.MinAgreement"}},
		{"max-p99-ratio negative", func(c *RolloutConfig) { c.MaxP99Ratio = -1 }, []string{"MaxP99Ratio"}},
		{"replica-ttl negative", func(c *RolloutConfig) { c.ReplicaTTL = -time.Second }, []string{"ReplicaTTL"}},
		{"all bad", func(c *RolloutConfig) {
			c.CanaryPercent, c.Shadow.MinAgreement = -5, 1.5
			c.MaxP99Ratio, c.ReplicaTTL = math.NaN(), -time.Minute
		}, []string{"CanaryPercent", "Shadow.MinAgreement", "MaxP99Ratio", "ReplicaTTL"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ctlDefaults
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			if got := strings.Count(err.Error(), "\n") + 1; got != len(tc.want) {
				t.Errorf("error reports %d problems, want %d: %v", got, len(tc.want), err)
			}
			for _, field := range tc.want {
				if !strings.Contains(err.Error(), field+" (-") {
					t.Errorf("error does not name %s: %v", field, err)
				}
			}
		})
	}
}

// TestManifestCarriesRolloutShadowPolicy: the policy a replica soaks with
// is the one the rollout judges heartbeats with, zero fields defaulted.
func TestManifestCarriesRolloutShadowPolicy(t *testing.T) {
	store, _ := NewStore("")
	stable, _, err := store.Put(synthBundle(t, 1))
	if err != nil {
		t.Fatalf("Put stable: %v", err)
	}
	cand, _, err := store.Put(synthBundle(t, 2))
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	ro := NewRollout(store, RolloutConfig{Shadow: ShadowPolicy{MinAgreement: 0.8}})
	want := ShadowPolicy{MinAgreement: 0.8, MinSamples: DefaultShadowPolicy().MinSamples}
	for _, ring := range []string{RingCanary, RingFleet} {
		if got := ro.Manifest(ring).ShadowPolicy; got != want {
			t.Fatalf("%s manifest shadow_policy = %+v, want %+v", ring, got, want)
		}
	}
	snap := ro.Snapshot()
	if snap.Config.MinAgreement != want.MinAgreement || snap.Config.MinShadowSamples != want.MinSamples {
		t.Fatalf("/debug/rollout config = %+v, want the manifest's policy %+v", snap.Config, want)
	}

	if err := ro.SetStable(stable); err != nil {
		t.Fatalf("SetStable: %v", err)
	}
	register(ro, stable, "r-a", "r-b")
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	soaking := Heartbeat{ReplicaID: "r-a", ActiveHash: stable, CandidateHash: cand,
		CandidateStatus: CandidateSoaking, CandidateSamples: 40, CandidateAgreement: 0.85}
	ro.Observe(soaking)
	if s := ro.Snapshot(); s.State != StateCanary {
		t.Fatalf("state = %s (%s) with agreement 0.85 against a 0.8 floor, want canary", s.State, s.RollbackReason)
	}
	soaking.CandidateAgreement = 0.75
	ro.Observe(soaking)
	if s := ro.Snapshot(); s.State != StateRolledBack || !strings.Contains(s.RollbackReason, "below 0.800") {
		t.Fatalf("state = %s (%q) with agreement 0.75 against a 0.8 floor, want rolled_back", s.State, s.RollbackReason)
	}
}

// TestREADMEProtocolExamplesDecode keeps README's manifest and heartbeat
// examples in step with the wire types: every key must be a real field.
func TestREADMEProtocolExamplesDecode(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	example := func(lead string) []byte {
		i := bytes.Index(readme, []byte(lead))
		if i < 0 {
			t.Fatalf("README has no paragraph starting %q", lead)
		}
		rest := readme[i:]
		start := bytes.Index(rest, []byte("```json\n"))
		if start < 0 {
			t.Fatalf("no json block after %q", lead)
		}
		rest = rest[start+len("```json\n"):]
		end := bytes.Index(rest, []byte("```"))
		if end < 0 {
			t.Fatalf("unterminated json block after %q", lead)
		}
		return rest[:end]
	}
	decode := func(lead string, v any) {
		dec := json.NewDecoder(bytes.NewReader(example(lead)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("README example after %q: %v", lead, err)
		}
	}

	var m Manifest
	decode("A manifest names", &m)
	if m.DesiredHash == "" || m.ShadowPolicy.MinSamples == 0 || m.ShadowPolicy.MinAgreement == 0 {
		t.Fatalf("README manifest example lacks desired_hash or shadow_policy: %+v", m)
	}
	var hb Heartbeat
	decode("A heartbeat carries", &hb)
	if hb.CandidateSamples == 0 || hb.CandidateAgreement == 0 {
		t.Fatalf("README heartbeat example lacks its soak evidence: %+v", hb)
	}
}
