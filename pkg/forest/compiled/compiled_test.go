package compiled_test

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// trainedFixture is the committed trainer-emitted bundle shared with
// pkg/bundle's round-trip tests.
const trainedFixture = "../../bundle/testdata/trained_small.json"

// synthShapes spans small, deep, wide, and degenerate forest geometries for
// the differential tests.
var synthShapes = []synth.Config{
	{Seed: 1},
	{Seed: 2, Trees: 1, Depth: 1, Features: 1, Classes: 2},
	{Seed: 3, Trees: 64, Depth: 10, Features: 14, Classes: 7},
	{Seed: 4, Trees: 7, Depth: 3, Features: 2, Classes: 3},
	{Seed: 5, Labeled: true, Trees: 12, Depth: 6, Collectives: []string{"allgather", "broadcast"}},
}

// samePrediction fails the test unless a and b carry the exact same bits —
// class, every probability, every vote.
func samePrediction(t *testing.T, label string, a, b forest.Prediction) {
	t.Helper()
	if a.Class != b.Class {
		t.Fatalf("%s: class %d != %d", label, a.Class, b.Class)
	}
	if len(a.Probs) != len(b.Probs) || len(a.Votes) != len(b.Votes) {
		t.Fatalf("%s: shape mismatch (probs %d/%d, votes %d/%d)",
			label, len(a.Probs), len(b.Probs), len(a.Votes), len(b.Votes))
	}
	for c := range a.Probs {
		if math.Float64bits(a.Probs[c]) != math.Float64bits(b.Probs[c]) {
			t.Fatalf("%s: probs[%d] = %x != %x (%v vs %v)", label, c,
				math.Float64bits(a.Probs[c]), math.Float64bits(b.Probs[c]), a.Probs[c], b.Probs[c])
		}
		if a.Votes[c] != b.Votes[c] {
			t.Fatalf("%s: votes[%d] = %d != %d", label, c, a.Votes[c], b.Votes[c])
		}
	}
}

// TestCompiledMatchesPointer sweeps synthetic forests of varied shape and
// checks every prediction is bit-identical between the compiled and pointer
// evaluators, including on NaN and ±Inf feature values.
func TestCompiledMatchesPointer(t *testing.T) {
	for _, cfg := range synthShapes {
		b := synth.MustNew(cfg)
		for name, c := range b.Collectives {
			cf := c.Compiled()
			if cf == nil {
				t.Fatalf("seed %d %s: Compiled() == nil", cfg.Seed, name)
			}
			points := synth.Points(cfg.Seed, 200)
			for i, pt := range points {
				x, err := c.Vector(pt)
				if err != nil {
					t.Fatal(err)
				}
				if i%5 == 0 && len(x) > 0 {
					x[i%len(x)] = math.NaN()
				}
				if i%7 == 0 && len(x) > 1 {
					x[(i+1)%len(x)] = math.Inf(1 - 2*(i%2))
				}
				want, err := c.Forest.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cf.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				samePrediction(t, name, got, want)
			}
		}
	}
}

// TestCompiledMatchesPointerOnTrainedFixture pins equivalence on the real
// trainer-emitted artifact, not just synthetic forests.
func TestCompiledMatchesPointerOnTrainedFixture(t *testing.T) {
	b, err := bundle.Load(trainedFixture)
	if err != nil {
		t.Fatalf("Load(%s): %v", trainedFixture, err)
	}
	for name, c := range b.Collectives {
		cf := c.Compiled()
		if cf == nil {
			t.Fatalf("%s: Compiled() == nil", name)
		}
		for _, pt := range synth.Points(42, 300) {
			x, err := c.Vector(pt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Forest.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cf.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			samePrediction(t, name, got, want)
		}
	}
}

// TestDecompileRoundTrip proves Compile preserves full structure: the
// decompiled forest validates, predicts bit-identically to the original,
// and recompiling it reproduces the exact arena bytes (Compile∘Decompile
// is a fixed point, even though node order within a tree is re-laid in
// preorder).
func TestDecompileRoundTrip(t *testing.T) {
	b := synth.MustNew(synth.Config{Seed: 11, Trees: 9, Depth: 5, Features: 6, Classes: 4})
	for name, c := range b.Collectives {
		cf := c.Compiled()
		back := cf.Decompile()
		if err := back.Validate(len(c.Features)); err != nil {
			t.Fatalf("%s: decompiled forest invalid: %v", name, err)
		}
		for _, pt := range synth.Points(11, 50) {
			x, err := c.Vector(pt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Forest.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			samePrediction(t, name, got, want)
		}
		again, err := compiled.Compile(back, len(c.Features))
		if err != nil {
			t.Fatalf("%s: recompile: %v", name, err)
		}
		b1, _ := cf.MarshalBinary()
		b2, _ := again.MarshalBinary()
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("%s: Compile(Decompile(cf)) encodes differently than cf", name)
		}
	}
}

// TestCompiledAccessors checks the shape accessors against the source
// forest.
func TestCompiledAccessors(t *testing.T) {
	b := synth.MustNew(synth.Config{Seed: 12, Trees: 5, Depth: 4, Features: 3, Classes: 3})
	for _, c := range b.Collectives {
		cf := c.Compiled()
		if cf.NumTrees() != len(c.Forest.Trees) {
			t.Errorf("NumTrees %d, want %d", cf.NumTrees(), len(c.Forest.Trees))
		}
		if cf.NClasses() != c.Forest.NClasses {
			t.Errorf("NClasses %d, want %d", cf.NClasses(), c.Forest.NClasses)
		}
		if cf.NumFeatures() != len(c.Features) {
			t.Errorf("NumFeatures %d, want %d", cf.NumFeatures(), len(c.Features))
		}
		nodes := 0
		for _, tr := range c.Forest.Trees {
			nodes += len(tr.Nodes)
		}
		if cf.NumNodes() != nodes {
			t.Errorf("NumNodes %d, want %d", cf.NumNodes(), nodes)
		}
	}
}

// TestCompileRejectsInvalid checks Compile re-validates instead of trusting
// its input.
func TestCompileRejectsInvalid(t *testing.T) {
	cyclic := &forest.Forest{NClasses: 2, Trees: []forest.Tree{{Nodes: []forest.Node{
		{F: 0, T: 1, L: 0, R: 0}, // self-loop
	}}}}
	if _, err := compiled.Compile(cyclic, 1); err == nil {
		t.Error("Compile accepted a cyclic forest")
	}
	b := synth.MustNew(synth.Config{Seed: 13, Trees: 2, Depth: 2, Features: 2, Classes: 2})
	for _, c := range b.Collectives {
		if _, err := compiled.Compile(c.Forest, 1); err == nil {
			t.Error("Compile accepted a forest whose features exceed the declared vector length")
		}
		break
	}
}

// TestPredictShortVector checks the single entry point still validates
// input length.
func TestPredictShortVector(t *testing.T) {
	b := synth.MustNew(synth.Config{Seed: 14, Trees: 2, Depth: 2, Features: 4, Classes: 2})
	for _, c := range b.Collectives {
		if _, err := c.Compiled().Predict(make([]float64, 1)); err == nil {
			t.Error("Predict accepted a short feature vector")
		}
	}
}

// TestPredictBatchMatchesSingle drives PredictBatch at sizes on both sides
// of every lane-group and block boundary and checks every slot is
// bit-identical to a standalone Predict: padding a short group, and where a
// vector falls in its block, never change a result.
func TestPredictBatchMatchesSingle(t *testing.T) {
	b := synth.MustNew(synth.Config{Seed: 15, Trees: 24, Depth: 7, Features: 8, Classes: 5})
	for name, c := range b.Collectives {
		cf := c.Compiled()
		points := synth.Points(15, 130)
		xs := make([][]float64, len(points))
		for i, pt := range points {
			x, err := c.Vector(pt)
			if err != nil {
				t.Fatal(err)
			}
			xs[i] = x
		}
		for _, size := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 130} {
			out := make([]forest.Prediction, size)
			if err := cf.PredictBatch(xs[:size], out); err != nil {
				t.Fatalf("%s size=%d: %v", name, size, err)
			}
			for i, x := range xs[:size] {
				want, err := cf.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				samePrediction(t, fmt.Sprintf("%s size=%d item=%d", name, size, i), out[i], want)
			}
		}
	}
}

// TestSplitPredicateEdges pins the one comparison both walks make, x <= t,
// where a careless rewrite goes wrong — equality, the two zeros, NaN and the
// infinities on either side — on the single-vector walk (the jump) and the
// batch kernel's lanes (the arithmetic step) alike, against the pointer walk.
func TestSplitPredicateEdges(t *testing.T) {
	values := []float64{math.NaN(), math.Inf(-1), -1.5, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1.5, math.Nextafter(1.5, 2), math.Inf(1)}
	for _, threshold := range values {
		pf := &forest.Forest{NClasses: 2, Trees: []forest.Tree{{Nodes: []forest.Node{
			{F: 0, T: threshold, L: 1, R: 2}, {F: -1, D: []float64{1, 0}}, {F: -1, D: []float64{0, 1}},
		}}}}
		cf, err := compiled.Compile(pf, 1)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, 0, len(values)) // one lane group and a one-vector tail
		for _, x := range values {
			xs = append(xs, []float64{x})
		}
		out := make([]forest.Prediction, len(xs))
		if err := cf.PredictBatch(xs, out); err != nil {
			t.Fatal(err)
		}
		for v, x := range xs {
			want, err := pf.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cf.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			samePrediction(t, fmt.Sprintf("single: %v <= %v", x[0], threshold), got, want)
			samePrediction(t, fmt.Sprintf("batch: %v <= %v", x[0], threshold), out[v], want)
		}
	}
}

// TestPredictBatchValidates checks the batch entry point's error paths.
func TestPredictBatchValidates(t *testing.T) {
	b := synth.MustNew(synth.Config{Seed: 16, Trees: 2, Depth: 2, Features: 4, Classes: 2})
	for _, c := range b.Collectives {
		cf := c.Compiled()
		xs := [][]float64{make([]float64, 4), make([]float64, 1)}
		if err := cf.PredictBatch(xs, make([]forest.Prediction, 2)); err == nil {
			t.Error("PredictBatch accepted a short vector")
		}
		if err := cf.PredictBatch(xs[:1], make([]forest.Prediction, 2)); err == nil {
			t.Error("PredictBatch accepted a mismatched output slice")
		}
	}
}

// TestInstrument checks the atomic predict hook fires and can be removed.
func TestInstrument(t *testing.T) {
	b := synth.MustNew(synth.Config{Seed: 17, Trees: 2, Depth: 2, Features: 3, Classes: 2})
	for _, c := range b.Collectives {
		cf := c.Compiled()
		var calls atomic.Int64
		cf.Instrument(func(seconds float64) {
			if seconds < 0 {
				t.Error("negative predict duration")
			}
			calls.Add(1)
		})
		x := make([]float64, cf.NumFeatures())
		if _, err := cf.Predict(x); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 1 {
			t.Fatalf("hook fired %d times, want 1", calls.Load())
		}
		cf.Instrument(nil)
		if _, err := cf.Predict(x); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 1 {
			t.Fatal("hook fired after removal")
		}
	}
}
