package compiled_test

import (
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestCompiledArenaSizedExactly pins that Compile sizes its arenas from the
// counts it takes before emitting: the node arena and the leaf distributions
// end with cap == len, so a loaded forest holds no append slack.
func TestCompiledArenaSizedExactly(t *testing.T) {
	for _, cfg := range []synth.Config{
		{Seed: 1},
		{Seed: 3, Trees: 64, Depth: 10, Features: 14, Classes: 7},
		{Seed: 5, Labeled: true, Trees: 12, Depth: 6},
	} {
		for name, c := range synth.MustNew(cfg).Collectives {
			f := c.Forest
			cf, err := compiled.Compile(f, len(c.FeatureNames))
			if err != nil {
				t.Fatal(err)
			}
			leaves := 0
			for _, tree := range f.Trees {
				for _, n := range tree.Nodes {
					if n.Leaf() {
						leaves++
					}
				}
			}
			nodes, nodesCap, probs, probsCap := compiled.ArenaLenCap(cf)
			if nodes != nodesCap || probs != probsCap {
				t.Errorf("seed %d %s: nodes len %d cap %d, leaf probabilities len %d cap %d; want cap == len",
					cfg.Seed, name, nodes, nodesCap, probs, probsCap)
			}
			if probs != leaves*f.NClasses {
				t.Errorf("seed %d %s: %d leaf probabilities, want %d leaves × %d classes",
					cfg.Seed, name, probs, leaves, f.NClasses)
			}
		}
	}
}
