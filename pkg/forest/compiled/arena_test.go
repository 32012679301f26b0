package compiled_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestCompiledArenaSizedExactly pins that Compile sizes its arenas from the
// counts it takes before emitting and stores each distinct leaf
// distribution once: the node arena ends with cap == len, and the leaf
// distributions with cap == len == distinct distributions × classes, so a
// loaded forest holds neither append slack nor repeats. The paper bundle,
// whose leaves mostly repeat a distribution, must share.
func TestCompiledArenaSizedExactly(t *testing.T) {
	type sample struct {
		name   string
		f      *forest.Forest
		nf     int
		shares bool // most leaves repeat another leaf's distribution
	}
	var samples []sample
	for _, cfg := range []synth.Config{
		{Seed: 1},
		{Seed: 3, Trees: 64, Depth: 10, Features: 14, Classes: 7},
		{Seed: 5, Labeled: true, Trees: 12, Depth: 6},
	} {
		for name, c := range synth.MustNew(cfg).Collectives {
			samples = append(samples, sample{fmt.Sprintf("seed %d %s", cfg.Seed, name), c.Forest, len(c.FeatureNames), cfg.Labeled})
		}
	}
	paper, err := bundle.Load(paperBundle)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range paper.CollectiveNames() {
		c := paper.Collectives[name]
		samples = append(samples, sample{"paper " + name, c.Forest, len(c.FeatureNames), true})
	}
	for _, s := range samples {
		cf, err := compiled.Compile(s.f, s.nf)
		if err != nil {
			t.Fatal(err)
		}
		leaves, distinct := 0, map[string]bool{}
		for _, tree := range s.f.Trees {
			for _, n := range tree.Nodes {
				if n.Leaf() {
					leaves++
					distinct[fmt.Sprint(bitsOf(n.D))] = true
				}
			}
		}
		nodes, nodesCap, probs, probsCap := compiled.ArenaLenCap(cf)
		if nodes != nodesCap || probs != probsCap {
			t.Errorf("%s: nodes len %d cap %d, leaf probabilities len %d cap %d; want cap == len",
				s.name, nodes, nodesCap, probs, probsCap)
		}
		if probs != len(distinct)*s.f.NClasses {
			t.Errorf("%s: %d leaf probabilities, want %d distinct distributions × %d classes",
				s.name, probs, len(distinct), s.f.NClasses)
		}
		if s.shares && 2*len(distinct) > leaves {
			t.Errorf("%s: %d distinct distributions over %d leaves; this forest repeats most of its own",
				s.name, len(distinct), leaves)
		}
		t.Logf("%s: %d leaves, %d distinct distributions", s.name, leaves, len(distinct))
	}
}

// bitsOf returns d's bit patterns: two distributions may share a slot only
// when these are equal.
func bitsOf(d []float64) []uint64 {
	b := make([]uint64, len(d))
	for i, p := range d {
		b[i] = math.Float64bits(p)
	}
	return b
}

// TestLeafSharingComparesBits: two leaves share a distribution only when
// their bits are equal. Equal-valued floats with other bits (0 and -0) keep
// their own copies, and a bit-identical NaN is shared like any other value.
func TestLeafSharingComparesBits(t *testing.T) {
	nan := math.NaN()
	leaf := func(d ...float64) forest.Node { return forest.Node{F: -1, D: d} }
	f := &forest.Forest{NClasses: 2, Trees: []forest.Tree{{Nodes: []forest.Node{
		{F: 0, T: 0.5, L: 1, R: 2},
		{F: 0, T: 0.25, L: 3, R: 4},
		{F: 0, T: 0.75, L: 5, R: 6},
		leaf(0, 1), leaf(math.Copysign(0, -1), 1), leaf(0, 1), leaf(nan, 1),
	}}, {Nodes: []forest.Node{leaf(nan, 1)}}}}
	cf, err := compiled.Compile(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, probs, _ := compiled.ArenaLenCap(cf); probs != 3*2 {
		t.Errorf("%d leaf probabilities, want 3 distributions × 2 classes", probs)
	}
	for _, x := range []float64{0, 0.3, 0.6, 1} {
		want, err := f.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cf.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(bitsOf(got.Probs), got.Votes) != fmt.Sprint(bitsOf(want.Probs), want.Votes) {
			t.Errorf("x=%v: compiled %v %v, pointer walk %v %v", x, bitsOf(got.Probs), got.Votes, bitsOf(want.Probs), want.Votes)
		}
	}
}
