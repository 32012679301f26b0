package synth

import (
	"bytes"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
)

func TestJSONIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Trees: 8, Depth: 4}
	a, err := JSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same config produced different bundle bytes")
	}
	c, err := JSON(Config{Seed: 8, Trees: 8, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical bundle bytes")
	}
}

func TestNewRoundTripsThroughBundleParse(t *testing.T) {
	b, err := New(Config{Seed: 1, Collectives: []string{"allgather", "alltoall", "bcast"}, Trees: 12, Depth: 5, Features: 6, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Collectives); got != 3 {
		t.Fatalf("bundle has %d collectives, want 3", got)
	}
	for name, c := range b.Collectives {
		if len(c.Forest.Trees) != 12 {
			t.Errorf("%s: %d trees, want 12", name, len(c.Forest.Trees))
		}
		if c.Forest.NClasses != 3 {
			t.Errorf("%s: %d classes, want 3", name, c.Forest.NClasses)
		}
		if len(c.FeatureNames) != 6 {
			t.Errorf("%s: %d features, want 6", name, len(c.FeatureNames))
		}
		// Parse already validated canonical-name agreement; spot-check one.
		if c.FeatureNames[0] != bundle.CanonicalFeatures[c.Features[0]] {
			t.Errorf("%s: feature name/index disagree", name)
		}
	}
	if len(b.TrainedOn) != 3 {
		t.Errorf("trained_on has %d systems, want default 3", len(b.TrainedOn))
	}
}

func TestFeaturesClampedToCanonicalSpace(t *testing.T) {
	b, err := New(Config{Seed: 2, Features: 99})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range b.Collectives {
		// Random bundles draw from the request features: a derived one would
		// make every consumer of synth.Points send num_nodes and ppn.
		if len(c.FeatureNames) != len(bundle.RequestFeatures) {
			t.Errorf("feature count %d, want clamp to the %d request features", len(c.FeatureNames), len(bundle.RequestFeatures))
		}
	}
}

func TestReservedCollectiveNameRejected(t *testing.T) {
	if _, err := JSON(Config{Collectives: []string{"version"}}); err == nil {
		t.Error("collective named \"version\" should be rejected")
	}
}

func TestPointsAreDeterministicDistinctAndComplete(t *testing.T) {
	a := Points(42, 16)
	b := Points(42, 16)
	for i := range a {
		if len(a[i]) != len(bundle.RequestFeatures) {
			t.Fatalf("point %d covers %d features, want all %d request features", i, len(a[i]), len(bundle.RequestFeatures))
		}
		for k, v := range a[i] {
			if b[i][k] != v {
				t.Fatalf("point %d key %s differs across runs", i, k)
			}
		}
	}
	if a[0]["ppn"] == a[1]["ppn"] {
		t.Error("distinct points should have distinct values")
	}
}

func TestSyntheticPredictionsWork(t *testing.T) {
	b := MustNew(Config{Seed: 3})
	pt := Points(3, 1)[0]
	for name, c := range b.Collectives {
		x, err := c.Vector(pt)
		if err != nil {
			t.Fatalf("%s: Vector: %v", name, err)
		}
		pred, err := c.Forest.Predict(x)
		if err != nil {
			t.Fatalf("%s: Predict: %v", name, err)
		}
		if pred.Class < 0 || pred.Class >= c.Forest.NClasses {
			t.Errorf("%s: class %d out of range", name, pred.Class)
		}
	}
}

// TestLabeledModeTrainsRealBundle: Labeled routes generation through the
// analytical perfmodel and the trainer, so the bundle's decisions track
// real cost-regime boundaries and its class counts match the perfmodel
// algorithm table (Features/Classes knobs are ignored).
func TestLabeledModeTrainsRealBundle(t *testing.T) {
	b, err := New(Config{Seed: 7, Labeled: true, Trees: 8, Depth: 8, Classes: 99, Features: 2})
	if err != nil {
		t.Fatalf("New(Labeled): %v", err)
	}
	for _, name := range []string{"allgather", "alltoall"} {
		c, ok := b.Collectives[name]
		if !ok {
			t.Fatalf("labeled bundle missing default collective %q", name)
		}
		algos, err := perfmodel.AlgorithmNames(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Forest.NClasses != len(algos) {
			t.Errorf("%s: NClasses %d, want perfmodel table size %d", name, c.Forest.NClasses, len(algos))
		}
		if len(c.Features) != len(bundle.CanonicalFeatures) {
			t.Errorf("%s: feature subset %d, want full canonical space %d", name, len(c.Features), len(bundle.CanonicalFeatures))
		}
	}

	// Decisions reflect analytical regimes: on a labeled sweep grid point,
	// the trained bundle should usually agree with the oracle.
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{
		Collectives:  []string{"allgather"},
		Nodes:        []float64{2, 8, 32},
		PPN:          []float64{4, 16},
		Log2MsgSizes: []float64{4, 12, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := b.Collectives["allgather"]
	agree := 0
	for i := range ds.Examples {
		ex := &ds.Examples[i]
		x, err := c.Vector(ex.Features)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := c.Forest.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Class == ex.Label {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(ds.Examples)); frac < 0.75 {
		t.Errorf("labeled bundle agrees with oracle on %.2f of probe points, want >= 0.75", frac)
	}
}

// TestLabeledModeDeterministicAndValidated: equal configs produce
// byte-identical labeled bundles, and unsupported collectives fail fast.
func TestLabeledModeDeterministicAndValidated(t *testing.T) {
	cfg := Config{Seed: 11, Labeled: true, Trees: 4, Depth: 6, Collectives: []string{"broadcast"}}
	a, err := JSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("labeled mode is not deterministic for equal configs")
	}
	if _, err := JSON(Config{Labeled: true, Collectives: []string{"reduce_scatter"}}); err == nil {
		t.Fatal("labeled mode must reject collectives the perfmodel does not support")
	}
}
