package retrain

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// standIn is a deployment's truth that perfmodel does not know: every
// (collective, algorithm) runs a fixed factor e^{0.5·N(0,1)} slower or
// faster than the analytical model says.
type standIn map[string][]float64

func newStandIn(seed int64) standIn {
	rng := rand.New(rand.NewSource(seed))
	s := make(standIn)
	for _, coll := range perfmodel.CollectiveNames() {
		names, _ := perfmodel.AlgorithmNames(coll)
		s[coll] = make([]float64, len(names))
		for i := range names {
			s[coll][i] = math.Exp(0.5 * rng.NormFloat64())
		}
	}
	return s
}

func (s standIn) costs(t testing.TB, coll string, f map[string]float64) []float64 {
	c, err := perfmodel.Costs(coll, f)
	if err != nil {
		t.Fatalf("costs: %v", err)
	}
	for i := range c {
		c[i] *= s[coll][i]
	}
	return c
}

// jobPoint is a request drawn as the benchmark draws its pool: a random
// collective on an edr-mid job of 2–32 nodes × 1–32 ranks per node, at a
// continuous log2 message size in [2, 22).
type jobPoint struct {
	coll string
	f    map[string]float64
}

func drawPoints(rng *rand.Rand, n int) []jobPoint {
	colls := perfmodel.CollectiveNames()
	out := make([]jobPoint, n)
	for i := range out {
		out[i] = jobPoint{
			coll: colls[rng.Intn(len(colls))],
			f: perfmodel.DefaultSystems[1].Features(
				float64(2+rng.Intn(31)), float64(1+rng.Intn(32)), 2+20*rng.Float64()),
		}
	}
	return out
}

// regret prices b's choices on pts with the stand-in: mean and p99 of
// cost(chosen)/cost(best) − 1.
func regret(t testing.TB, b *bundle.Bundle, truth standIn, pts []jobPoint) (mean, p99 float64) {
	t.Helper()
	r := make([]float64, len(pts))
	var pred forest.Prediction
	for i, p := range pts {
		coll, ok := b.Collective(p.coll)
		if !ok {
			t.Fatalf("bundle lacks %s", p.coll)
		}
		x, err := coll.Vector(p.f)
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Compiled().PredictInto(x, &pred); err != nil {
			t.Fatal(err)
		}
		c := truth.costs(t, p.coll, p.f)
		best := c[0]
		for _, v := range c {
			best = min(best, v)
		}
		r[i] = c[pred.Class]/best - 1
		mean += r[i]
	}
	sort.Float64s(r)
	return mean / float64(len(r)), r[int(math.Ceil(0.99*float64(len(r))))-1]
}

// TestLearningCurve is the feedback loop's reason to exist: served from a
// bundle pre-trained on perfmodel, fed generations of measured feedback
// from a deployment whose truth perfmodel does not know, it must learn that
// truth. Regret against the stand-in falls from generation 0 (the
// pre-trained bundle), and no candidate that beats the incumbent on the
// held-out feedback is retired.
func TestLearningCurve(t *testing.T) {
	const (
		generations = 3
		perGen      = 512
	)
	truth := newStandIn(42)
	tc := train.Config{Trees: 12, MaxDepth: 10}
	h := newHarnessOn(t, trainIncumbent(t, perfmodel.SweepConfig{}, train.Config{Trees: 12, MaxDepth: 10, Seed: 1}))
	c, err := New(h.o, Config{Trainer: tc, Seed: 1}, Deps{Store: h.store, Registry: h.reg, Shadow: h.shadow})
	if err != nil {
		t.Fatal(err)
	}
	eval := drawPoints(rand.New(rand.NewSource(2)), 2000)
	feed := rand.New(rand.NewSource(3))

	active, _ := h.reg.Active()
	mean0, p990 := regret(t, active, truth, eval)
	t.Logf("gen 0: pre-trained   regret mean %.4f p99 %.3f", mean0, p990)
	last := mean0
	promoted := 0
	for gen := 1; gen <= generations; gen++ {
		quarantined := 0
		for _, p := range drawPoints(feed, perGen) {
			costs := truth.costs(t, p.coll, p.f)
			names, _ := perfmodel.AlgorithmNames(p.coll)
			lat := make(map[string]float64, len(names))
			for i, name := range names {
				lat[name] = costs[i] * 1e6
			}
			out, err := h.store.Add(&dataset.Record{Collective: p.coll, Features: p.f, LatenciesUS: lat})
			switch out {
			case feedback.OutcomeQuarantined:
				quarantined++
			case feedback.OutcomeAccepted, feedback.OutcomeDuplicate:
			default:
				t.Fatalf("feedback outcome %s: %v", out, err)
			}
		}
		incumbent, _ := h.reg.Active()
		v := c.RunCycle("manual")
		if v.Outcome != OutcomePromoted && v.Outcome != OutcomeRetired {
			t.Fatalf("gen %d: outcome %s detail %q", gen, v.Outcome, v.Detail)
		}

		// Judge the judge from outside: score both bundles on the store's
		// held-out records.
		fb, err := h.store.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		holdout := dataset.New(fb.Algorithms)
		for _, ex := range fb.Examples {
			if heldOut(ex.Collective, ex.Features) {
				holdout.Examples = append(holdout.Examples, ex)
			}
		}
		cand, ok := h.reg.Generation(v.CandidateGeneration)
		if !ok {
			t.Fatalf("gen %d: candidate %d evicted", gen, v.CandidateGeneration)
		}
		candAcc, err := accuracy(cand.Bundle(), holdout)
		if err != nil {
			t.Fatal(err)
		}
		incAcc, err := accuracy(incumbent, holdout)
		if err != nil {
			t.Fatal(err)
		}
		if beats := candAcc > incAcc; beats != (v.Outcome == OutcomePromoted) {
			t.Errorf("gen %d: %s with held-out accuracy %.4f against the incumbent's %.4f",
				gen, v.Outcome, candAcc, incAcc)
		}
		if v.Outcome == OutcomePromoted {
			promoted++
		}

		active, _ := h.reg.Active()
		mean, p99 := regret(t, active, truth, eval)
		t.Logf("gen %d: %-9s regret mean %.4f p99 %.3f  quarantined %.3f  feedback share %.4f  held-out acc %.3f vs %.3f",
			gen, v.Outcome, mean, p99, float64(quarantined)/perGen,
			float64(v.TrainExamples-v.SweepExamples)/float64(v.TrainExamples), candAcc, incAcc)
		last = mean
	}
	if promoted == 0 || last >= mean0 {
		t.Fatalf("after %d generations (%d promoted) regret mean %.4f, want below generation 0's %.4f",
			generations, promoted, last, mean0)
	}
}
