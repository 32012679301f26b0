package registry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

const paperBundle = "../../.pmlbench/bundle_all_full.json"

// paperPool draws n seeded requests per collective of ref, alternating the
// collectives, each feature a split threshold of that collective's forest or
// the next float above it, so the pool exercises both sides of the paper
// forests' splits.
func paperPool(ref *bundle.Bundle, seed int64, n int) []selector.BatchRequest {
	rng := rand.New(rand.NewSource(seed))
	names := ref.CollectiveNames()
	cuts := make(map[string][][]float64, len(names))
	for _, name := range names {
		c := ref.Collectives[name]
		cuts[name] = make([][]float64, len(c.FeatureNames))
		for _, tree := range c.Forest.Trees {
			for _, n := range tree.Nodes {
				if !n.Leaf() {
					cuts[name][n.F] = append(cuts[name][n.F], n.T)
				}
			}
		}
	}
	var pool []selector.BatchRequest
	for i := 0; i < n; i++ {
		for _, name := range names {
			c := ref.Collectives[name]
			features := make(map[string]float64, len(c.FeatureNames))
			for f, fname := range c.FeatureNames {
				v := cuts[name][f][rng.Intn(len(cuts[name][f]))]
				if rng.Intn(2) == 0 {
					v = math.Nextafter(v, math.Inf(1))
				}
				features[fname] = v
			}
			pool = append(pool, selector.BatchRequest{Collective: name, Features: features})
		}
	}
	return pool
}

// TestServedGenerationDecidesAsThePointerWalk: the paper bundle loaded
// through LoadData keeps only its compiled forests, and decides exactly as
// the pointer walk of a separate parse of the same bytes — class, votes and
// the bits of every probability — on the shadow path as a staged candidate,
// and then, promoted, on single selects and on one batch.
func TestServedGenerationDecidesAsThePointerWalk(t *testing.T) {
	data, err := os.ReadFile(paperBundle)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bundle.ParseAny(data)
	if err != nil {
		t.Fatal(err)
	}
	pool := paperPool(ref, 38, 200)
	want := make([]struct {
		class int
		probs []float64
		votes []int
	}, len(pool))
	for i, req := range pool {
		c := ref.Collectives[req.Collective]
		x, err := c.Vector(req.Features)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Forest.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i].class, want[i].probs, want[i].votes = p.Class, p.Probs, p.Votes
	}

	o := obs.NewForTest()
	sh := NewShadow(o, ShadowConfig{Fraction: 1, Workers: 1, QueueSize: len(pool)})
	sh.Start()
	r := New(o, Config{Shadow: sh})
	g, err := r.LoadData(data, "mem://paper")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range g.Bundle().Collectives {
		if c.Forest != nil {
			t.Errorf("%s: the generation kept its pointer trees", name)
		}
	}

	// Shadow: the candidate agrees with every decision the pointer walk made.
	for i, req := range pool {
		sh.Offer(req.Collective, req.Features, fmt.Sprintf("class_%d", want[i].class), want[i].class, 1000)
	}
	sh.Stop()
	rep := sh.Report()
	var samples, agreements uint64
	for _, cell := range rep.Collectives {
		samples += cell.Samples
		agreements += cell.Agreements
	}
	if samples != uint64(len(pool)) || agreements != samples {
		t.Errorf("shadow: %d agreements over %d samples, want %d of %d", agreements, samples, len(pool), len(pool))
	}

	if _, err := r.Promote(g.ID()); err != nil {
		t.Fatal(err)
	}
	sel := selector.NewFromSource(r, o, selector.Config{})
	check := func(path string, i int, d *selector.Decision) {
		t.Helper()
		w := want[i]
		if d.Generation != g.ID() || d.Class != w.class || !reflect.DeepEqual(d.Votes, w.votes) ||
			fmt.Sprint(bits(d.Probs)) != fmt.Sprint(bits(w.probs)) {
			t.Errorf("%s item %d (%s): generation %d class %d votes %v probs %v; pointer walk: class %d votes %v probs %v",
				path, i, pool[i].Collective, d.Generation, d.Class, d.Votes, d.Probs, w.class, w.votes, w.probs)
		}
	}
	ctx := context.Background()
	for i, req := range pool {
		d, err := sel.Select(ctx, req.Collective, req.Features)
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		check("single", i, d)
	}
	for i, res := range sel.SelectBatch(ctx, pool) {
		if res.Err != nil {
			t.Fatalf("batch item %d: %v", i, res.Err)
		}
		check("batch", i, res.Decision)
	}
}

func bits(p []float64) []uint64 {
	b := make([]uint64, len(p))
	for i, v := range p {
		b[i] = math.Float64bits(v)
	}
	return b
}
