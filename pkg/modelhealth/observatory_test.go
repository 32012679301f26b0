package modelhealth

import (
	"math"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

func canonIndexOf(t *testing.T, name string) int {
	t.Helper()
	for i, n := range bundle.CanonicalFeatures {
		if n == name {
			return i
		}
	}
	t.Fatalf("feature %q is not canonical", name)
	return -1
}

func testStats() *bundle.FeatureStats {
	return &bundle.FeatureStats{
		Source: "unit-test-sweep",
		Features: map[string]bundle.FeatureDist{
			"num_nodes": uniformRef(),
		},
	}
}

// TestObservatoryGenerationIsolationOnSwap is the mid-stream-promote
// regression: a promotion must freeze the outgoing generation's drift
// picture onto its scorecard, start the new generation's window from
// scratch, and ignore straggling decisions still tagged with the old
// generation — the same isolation the generation-prefixed decision cache
// provides.
func TestObservatoryGenerationIsolationOnSwap(t *testing.T) {
	o := New(obs.NewRegistry(), Config{Window: 4, FlightRecSize: 16})
	b := &bundle.Bundle{Stats: testStats()}
	ci := []int{canonIndexOf(t, "num_nodes")}

	o.OnSwap(1, b)
	if rep := o.DriftReport(); rep.Generation != 1 || rep.Status != "collecting" {
		t.Fatalf("post-swap report = gen %d status %s, want gen 1 collecting", rep.Generation, rep.Status)
	}

	// Eight decisions far outside the training support: two completed
	// windows, both alerting.
	for i := 0; i < 8; i++ {
		o.RecordDecision(1, "allgather", "ring", ci, []float64{1e9}, 0.5, false, 1000)
	}
	if rep := o.DriftReport(); rep.Status != "alert" {
		t.Fatalf("shifted gen-1 status = %s, want alert", rep.Status)
	}

	// Promote mid-stream.
	o.OnSwap(2, b)
	rep := o.DriftReport()
	if rep.Generation != 2 {
		t.Fatalf("post-promote generation = %d, want 2", rep.Generation)
	}
	if rep.Status != "collecting" {
		t.Fatalf("post-promote status = %s, want collecting (fresh sketches)", rep.Status)
	}
	if rep.ReferenceSource != "unit-test-sweep" {
		t.Fatalf("reference source = %q", rep.ReferenceSource)
	}

	// Gen-2 traffic matches the reference exactly (one value per bin).
	for _, v := range []float64{5, 15, 25, 35} {
		o.RecordDecision(2, "allgather", "ring", ci, []float64{v}, 0.5, false, 1000)
	}
	if rep := o.DriftReport(); rep.Status != "ok" {
		t.Fatalf("in-distribution gen-2 status = %s, want ok", rep.Status)
	}

	// A straggler still tagged gen 1 must not touch gen 2's sketches.
	before := o.DriftReport().Features[0]
	o.RecordDecision(1, "allgather", "ring", ci, []float64{1e9}, 0.5, false, 1000)
	after := o.DriftReport().Features[0]
	if after.Pending != before.Pending || after.Live.Total != before.Live.Total {
		t.Fatalf("gen-1 straggler contaminated gen-2 sketches: pending %d->%d live %d->%d",
			before.Pending, after.Pending, before.Live.Total, after.Live.Total)
	}
	if rep := o.DriftReport(); rep.Status != "ok" {
		t.Fatalf("status after straggler = %s, want ok", rep.Status)
	}

	// Scorecards: counts attribute per generation, gen 1's drift picture is
	// frozen at the moment of promotion.
	cards := o.Scorecards()
	if len(cards) != 2 {
		t.Fatalf("scorecards = %d, want 2", len(cards))
	}
	g2, g1 := cards[0], cards[1] // newest first
	if g2.Generation != 2 || g1.Generation != 1 {
		t.Fatalf("scorecard order = gen %d, gen %d", g2.Generation, g1.Generation)
	}
	if !g2.Active || g1.Active {
		t.Fatalf("active flags = gen2 %v gen1 %v", g2.Active, g1.Active)
	}
	if g1.Decisions != 9 { // 8 pre-promote + the straggler
		t.Fatalf("gen-1 decisions = %d, want 9", g1.Decisions)
	}
	if g2.Decisions != 4 {
		t.Fatalf("gen-2 decisions = %d, want 4", g2.Decisions)
	}
	if g1.DriftStatus != "alert" {
		t.Fatalf("gen-1 frozen drift status = %q, want alert", g1.DriftStatus)
	}
	if _, ok := g1.DriftScores["num_nodes"]; !ok {
		t.Fatalf("gen-1 frozen drift scores missing num_nodes: %v", g1.DriftScores)
	}
	if g2.DriftStatus != "ok" {
		t.Fatalf("gen-2 live drift status = %q, want ok", g2.DriftStatus)
	}

	active, ok := o.ActiveScorecard()
	if !ok || active.Generation != 2 {
		t.Fatalf("active scorecard = %+v ok=%v, want gen 2", active, ok)
	}
}

func TestObservatoryMarginTelemetryAndFlightCapture(t *testing.T) {
	o := New(obs.NewRegistry(), Config{Window: 4, MarginWarn: 0.2, FlightRecSize: 16})
	o.OnSwap(1, &bundle.Bundle{Stats: testStats()})
	ci := []int{canonIndexOf(t, "num_nodes")}

	// Three confident decisions, one low-margin; feature values spread one
	// per reference bin so the completed window scores ok.
	for i, v := range []float64{5, 15, 25} {
		o.RecordDecision(1, "broadcast", "btree", ci, []float64{v}, 0.8, i == 0, 1000)
	}
	o.RecordDecision(1, "broadcast", "btree", ci, []float64{35}, 0.05, false, 1000)

	sum := o.Summary()
	if sum.Decisions != 4 {
		t.Fatalf("summary decisions = %d, want 4", sum.Decisions)
	}
	if sum.LowMarginRate != 0.25 {
		t.Fatalf("low-margin rate = %v, want 0.25", sum.LowMarginRate)
	}
	if sum.DriftStatus != "ok" {
		t.Fatalf("summary drift = %s, want ok (window of 4 in-dist values)", sum.DriftStatus)
	}
	if sum.FlightRecCapacity != 16 {
		t.Fatalf("flight capacity = %d", sum.FlightRecCapacity)
	}
	if sum.FlightRecOccupancy != 1 {
		t.Fatalf("flight occupancy = %d, want 1 (the low-margin decision)", sum.FlightRecOccupancy)
	}

	recs := o.Flight().Dump()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Margin != 0.05 || r.Collective != "broadcast" || r.Algorithm != "btree" || r.Generation != 1 {
		t.Fatalf("flight record = %+v", r)
	}
	if len(r.Reasons) != 1 || r.Reasons[0] != "low_margin" {
		t.Fatalf("flight reasons = %v, want [low_margin]", r.Reasons)
	}
	if got := r.Features["num_nodes"]; got != 35 {
		t.Fatalf("flight features = %v, want num_nodes=35", r.Features)
	}

	// Push the drift state to alert; subsequent decisions carry the
	// drift_alert reason even at high margin.
	for i := 0; i < 4; i++ {
		o.RecordDecision(1, "broadcast", "btree", ci, []float64{1e9}, 0.9, false, 1000)
	}
	o.RecordDecision(1, "broadcast", "btree", ci, []float64{1e9}, 0.9, false, 1000)
	recs = o.Flight().Dump()
	last := recs[len(recs)-1]
	found := false
	for _, reason := range last.Reasons {
		if reason == "drift_alert" {
			found = true
		}
	}
	if !found {
		t.Fatalf("decision under drift alert carried reasons %v, want drift_alert", last.Reasons)
	}
	if last.Drift != "alert" {
		t.Fatalf("flight drift field = %s, want alert", last.Drift)
	}

	// Refresh re-derives gauges without panicking on live state.
	o.Refresh()
}

func TestRecordShadowAttribution(t *testing.T) {
	o := New(obs.NewRegistry(), Config{})
	o.RecordShadow(3, true)
	o.RecordShadow(3, true)
	o.RecordShadow(3, false)

	cards := o.Scorecards()
	if len(cards) != 1 || cards[0].Generation != 3 {
		t.Fatalf("scorecards = %+v", cards)
	}
	if cards[0].ShadowSamples != 3 {
		t.Fatalf("shadow samples = %d, want 3", cards[0].ShadowSamples)
	}
	if got := cards[0].ShadowAgreeRate; got < 0.66 || got > 0.67 {
		t.Fatalf("shadow agree rate = %v, want 2/3", got)
	}
}

func TestScorecardEviction(t *testing.T) {
	o := New(obs.NewRegistry(), Config{MaxGenerations: 3})
	for gen := uint64(1); gen <= 6; gen++ {
		o.OnSwap(gen, nil)
	}
	cards := o.Scorecards()
	if len(cards) != 3 {
		t.Fatalf("retained %d cards, want 3", len(cards))
	}
	if cards[0].Generation != 6 || cards[2].Generation != 4 {
		t.Fatalf("retained generations %d..%d, want 6..4", cards[0].Generation, cards[2].Generation)
	}
}

func TestObservatoryNoReferenceBundle(t *testing.T) {
	// Bundles without feature_stats (all pre-existing ones) must be
	// tolerated: no drift scoring, everything else live.
	o := New(obs.NewRegistry(), Config{})
	o.OnSwap(1, &bundle.Bundle{})
	ci := []int{canonIndexOf(t, "num_nodes")}
	o.RecordDecision(1, "allgather", "ring", ci, []float64{4}, 0.7, false, 1000)

	rep := o.DriftReport()
	if rep.Status != "no_reference" || len(rep.Features) != 0 {
		t.Fatalf("no-stats report = %+v, want no_reference with no features", rep)
	}
	if sum := o.Summary(); sum.DriftStatus != "no_reference" || sum.Decisions != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestFlightRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{10, 16}, {0, 8}, {-5, 8}, {8, 8}, {256, 256}, {257, 264},
	} {
		if got := NewFlightRecorder(tc.in).Capacity(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Capacity() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		fr.Record(1, "allgather", "ring", []int{0}, []float64{float64(i)}, 0.1, false, 100, ReasonLowMargin, DriftOK)
	}
	if occ := fr.Occupancy(); occ != 16 {
		t.Fatalf("occupancy = %d, want 16 after wraparound", occ)
	}
	recs := fr.Dump()
	if len(recs) != 16 {
		t.Fatalf("dump = %d records, want 16", len(recs))
	}
	// Round-robin striping over 8 stripes x 2 slots keeps exactly the last
	// 16 sequence numbers, returned oldest first.
	for i, r := range recs {
		if want := uint64(25 + i); r.Seq != want {
			t.Fatalf("dump[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
}

// TestScorecardQuantilesPinned feeds a fixed decision sequence and pins the
// scorecard's margin and latency quantiles and the flight recorder's
// latency-tail threshold, bit for bit, to the values the sketch's own
// quantile code produced before it moved onto obs.BucketSnapshot.
func TestScorecardQuantilesPinned(t *testing.T) {
	o := New(obs.NewRegistry(), Config{FlightRecSize: 16})
	o.OnSwap(1, &bundle.Bundle{})
	var tails []int64
	for i := 0; i < 3000; i++ {
		margin := float64((i*37)%101) / 100
		lat := int64(800 + (i*i*131)%250_000)
		if i%50 == 0 {
			lat += 3_000_000
		}
		o.RecordDecision(1, "allgather", "ring", nil, nil, margin, i%3 == 0, lat)
		if (i+1)%1024 == 0 {
			tails = append(tails, o.latencyTailNS.Load())
		}
	}
	sc, _ := o.ActiveScorecard()
	got := []float64{sc.MarginP10, sc.MarginP50, sc.MarginP90, sc.LatencyP50NS, sc.LatencyP99NS}
	want := []float64{0.07500000000000001, 0.475, 0.875, 96000, 3.072e+06}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("scorecard quantile %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(tails) != 2 || tails[0] != 4096000 || tails[1] != 4096000 || o.latencyTailNS.Load() != 4096000 {
		t.Errorf("latency-tail thresholds = %v then %d, want 4096000 throughout", tails, o.latencyTailNS.Load())
	}
}
