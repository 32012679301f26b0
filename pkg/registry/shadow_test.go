package registry

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// stageCandidate loads a synthetic bundle into a fresh registry wired to a
// shadow evaluator and stages it as the candidate.
func stageCandidate(t *testing.T, sh *Shadow, seed int64) *Generation {
	t.Helper()
	r := New(obs.NewForTest(), Config{Shadow: sh})
	g, err := r.LoadData(bundleJSON(t, seed), fmt.Sprintf("mem://seed-%d", seed))
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	return g
}

// waitDrained polls until the shadow queue is empty and workers are idle
// (bounded); Stop would also drain but tests often want the shadow alive.
func drainAndStop(sh *Shadow) { sh.Stop() }

func TestShadowAgreementMatchesDirectComparison(t *testing.T) {
	o := obs.NewForTest()
	sh := NewShadow(o, ShadowConfig{Fraction: 1, Workers: 1})
	sh.Start()
	cand := stageCandidate(t, sh, 2)
	// The staged candidate keeps only its compiled forests; the reference
	// walk runs on a separate parse of the same bytes.
	ref, err := bundle.Parse(bundleJSON(t, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate the candidate directly on each point to know the expected
	// agreement outcome, then offer the same points as "live" decisions
	// whose algorithm is the candidate's own answer for even indices and a
	// guaranteed-mismatching name for odd ones.
	points := synth.Points(7, 20)
	wantAgree := 0
	for i, p := range points {
		c, ok := ref.Collective("allgather")
		if !ok {
			t.Fatal("candidate missing allgather")
		}
		x, err := c.Vector(p)
		if err != nil {
			t.Fatalf("vector: %v", err)
		}
		pred, err := c.Forest.Predict(x)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		algo := fmt.Sprintf("class_%d", pred.Class)
		if i%2 == 1 {
			algo = "definitely_not_" + algo
		} else {
			wantAgree++
		}
		sh.Offer("allgather", p, algo, pred.Class, 1000)
	}
	drainAndStop(sh)

	rep := sh.Report()
	cell, ok := rep.Collectives["allgather"]
	if !ok {
		t.Fatalf("report has no allgather cell: %+v", rep)
	}
	if cell.Samples != uint64(len(points)) {
		t.Fatalf("samples = %d, want %d", cell.Samples, len(points))
	}
	if cell.Agreements != uint64(wantAgree) {
		t.Fatalf("agreements = %d, want %d", cell.Agreements, wantAgree)
	}
	wantRate := float64(wantAgree) / float64(len(points))
	if cell.AgreementRate != wantRate {
		t.Fatalf("agreement rate = %v, want %v", cell.AgreementRate, wantRate)
	}
	if cell.CandidateMeanNS <= 0 {
		t.Fatalf("candidate mean latency = %v, want > 0", cell.CandidateMeanNS)
	}
	if cell.PrimaryMeanNS != 1000 {
		t.Fatalf("primary mean latency = %v, want 1000", cell.PrimaryMeanNS)
	}
	if got := cell.CandidateMeanNS - cell.PrimaryMeanNS; cell.LatencyDeltaMeanNS != got {
		t.Fatalf("latency delta = %v, want %v", cell.LatencyDeltaMeanNS, got)
	}
	if rep.CandidateGeneration != cand.ID() {
		t.Fatalf("report candidate generation = %d, want %d", rep.CandidateGeneration, cand.ID())
	}
}

func TestShadowSamplingStride(t *testing.T) {
	sh := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 0.5, Workers: 1})
	sh.Start()
	stageCandidate(t, sh, 3)
	points := synth.Points(1, 10)
	for _, p := range points {
		sh.Offer("allgather", p, "x", 0, 1)
	}
	drainAndStop(sh)
	cell := sh.Report().Collectives["allgather"]
	// Deterministic counter sampling: exactly every 2nd offer.
	if total := cell.Samples + cell.Errors; total != 5 {
		t.Fatalf("fraction 0.5 sampled %d of 10 offers, want exactly 5", total)
	}
}

func TestShadowDisabledWhenNoCandidateOrZeroFraction(t *testing.T) {
	sh := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 1, Workers: 1})
	sh.Start()
	// No candidate staged: offers are ignored outright.
	sh.Offer("allgather", synth.Points(1, 1)[0], "x", 0, 1)

	zero := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 0, Workers: 1})
	zero.Start()
	stageCandidate(t, zero, 4)
	zero.Offer("allgather", synth.Points(1, 1)[0], "x", 0, 1)

	drainAndStop(sh)
	drainAndStop(zero)
	if n := len(sh.Report().Collectives); n != 0 {
		t.Fatalf("candidate-less shadow recorded %d collectives, want 0", n)
	}
	if n := len(zero.Report().Collectives); n != 0 {
		t.Fatalf("zero-fraction shadow recorded %d collectives, want 0", n)
	}
	if zero.Report().Enabled {
		t.Fatal("zero-fraction shadow reports enabled")
	}
}

func TestShadowQueueOverflowDropsWithoutBlocking(t *testing.T) {
	sh := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 1, Workers: 1, QueueSize: 1})
	// Workers intentionally not started: the queue fills at one entry.
	stageCandidate(t, sh, 5)
	p := synth.Points(2, 1)[0]
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			sh.Offer("allgather", p, "x", 0, 1)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Offer blocked on a full queue")
	}
	if rep := sh.Report(); rep.Dropped != 9 {
		t.Fatalf("dropped = %d, want 9 (queue of 1, 10 offers, no workers)", rep.Dropped)
	}
}

func TestShadowErrorPathsCounted(t *testing.T) {
	sh := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 1, Workers: 1})
	sh.Start()
	stageCandidate(t, sh, 6)
	// Unknown collective and a point missing every feature both count as
	// errors, never as agreement samples.
	sh.Offer("no_such_collective", synth.Points(3, 1)[0], "x", 0, 1)
	sh.Offer("allgather", map[string]float64{}, "x", 0, 1)
	drainAndStop(sh)
	rep := sh.Report()
	var errs uint64
	for _, c := range rep.Collectives {
		errs += c.Errors
		if c.Samples != 0 {
			t.Fatalf("error-path offers recorded %d samples: %+v", c.Samples, rep)
		}
	}
	if errs != 2 {
		t.Fatalf("errors = %d, want 2", errs)
	}
}

func TestShadowCandidateClearedOnPromote(t *testing.T) {
	sh := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 1, Workers: 1})
	sh.Start()
	defer drainAndStop(sh)
	r := New(obs.NewForTest(), Config{Shadow: sh})
	g, _ := r.LoadData(bundleJSON(t, 8), "mem://cand")
	if sh.Candidate() == nil {
		t.Fatal("loading did not stage a shadow candidate")
	}
	if _, err := r.Promote(g.ID()); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if sh.Candidate() != nil {
		t.Fatal("promoting the candidate did not clear it")
	}
	// Evidence identity survives for post-promote inspection.
	if rep := sh.Report(); rep.CandidateGeneration != g.ID() || rep.Enabled {
		t.Fatalf("post-promote report = %+v, want candidate id %d and enabled=false", rep, g.ID())
	}
}

// TestShadowTimesCandidateOnCompiledForest: a candidate is timed on the
// evaluator it would serve through once promoted, the compiled forest — one
// compiled predict per shadow sample, none on the reference walk.
func TestShadowTimesCandidateOnCompiledForest(t *testing.T) {
	sh := NewShadow(obs.NewForTest(), ShadowConfig{Fraction: 1, Workers: 2})
	sh.Start()
	cand := stageCandidate(t, sh, 9)
	c, _ := cand.Bundle().Collective("allgather")
	var predicts atomic.Int64
	c.Compiled().Instrument(func(float64) { predicts.Add(1) })

	points := synth.Points(11, 25)
	for _, p := range points {
		sh.Offer("allgather", p, "x", 0, 1)
	}
	drainAndStop(sh)
	cell := sh.Report().Collectives["allgather"]
	if cell.Samples != uint64(len(points)) || cell.Errors != 0 {
		t.Fatalf("samples = %d, errors = %d, want %d and 0", cell.Samples, cell.Errors, len(points))
	}
	if n := predicts.Load(); n != int64(cell.Samples) {
		t.Fatalf("compiled forest timed %d predicts for %d shadow samples", n, cell.Samples)
	}
}

// TestShadowUncompiledCandidateIsForestError: a candidate collective without
// a compiled forest (only an in-memory bundle can hold one) is a forest
// error, not a sample on some other evaluator.
func TestShadowUncompiledCandidateIsForestError(t *testing.T) {
	o := obs.NewForTest()
	sh := NewShadow(o, ShadowConfig{Fraction: 1, Workers: 1})
	sh.Start()
	// The leaf at node 2 has the wrong arity, so the forest fails Validate
	// and does not compile; the point below never reaches that leaf.
	broken := &forest.Forest{NClasses: 2, Trees: []forest.Tree{{Nodes: []forest.Node{
		{F: 0, T: 0.5, L: 1, R: 2},
		{F: -1, D: []float64{1, 0}},
		{F: -1, D: []float64{1}},
	}}}}
	b := &bundle.Bundle{Collectives: map[string]*bundle.Collective{"allgather": {
		Name: "allgather", Features: []int{0}, FeatureNames: []string{"log2_msg_size"}, Forest: broken,
	}}}
	sh.SetCandidate(&Generation{id: 1, bundle: b})
	sh.Offer("allgather", map[string]float64{"log2_msg_size": 0}, "x", 0, 1)
	drainAndStop(sh)
	cell := sh.Report().Collectives["allgather"]
	if cell.Samples != 0 || cell.Errors != 1 {
		t.Fatalf("samples = %d, errors = %d, want 0 and 1", cell.Samples, cell.Errors)
	}
	if n := sh.mErrors.Value("allgather", "forest_error"); n != 1 {
		t.Fatalf("forest_error count = %v, want 1", n)
	}
}
