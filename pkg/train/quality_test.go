package train_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// TestDefaultSweepQuality trains the default sweep as `pmlmpi-train
// -synthetic-sweep -seed 1` does (sweep, dedup, 80/20 split, default
// forests) and scores it, by the analytical oracle's modelled collective
// times, on a pinned pool drawn as the benchmark draws its requests:
// edr-mid, nodes 2–32, ppn 1–32, log2 size uniform in [2, 22). Regret is
// cost(chosen)/cost(best) − 1. The tail it guards lived at odd rank
// counts: without the derived parity features and a shape draw that
// covers them, p99 regret read 0.97 and agreement 0.84. Regret by P class
// (odd / even / power of two) is logged so the evidence stays visible.
func TestDefaultSweepQuality(t *testing.T) {
	const (
		seed     = 1
		poolSeed = 20241
		n        = 6000
	)
	swept, err := perfmodel.Sweep(perfmodel.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(perfmodel.Table())
	if err := ds.Merge(swept); err != nil {
		t.Fatal(err)
	}
	ds.Dedup()
	trainSet, _ := ds.Split(0.2, seed)
	b, _, err := train.TrainBundle(trainSet, train.BundleConfig{Config: train.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}

	sys := perfmodel.DefaultSystems[1]
	if sys.Name != "edr-mid" {
		t.Fatalf("DefaultSystems[1] is %q, want edr-mid", sys.Name)
	}
	colls := b.CollectiveNames()
	rng := rand.New(rand.NewSource(poolSeed))
	type class struct {
		n, agree int
		regrets  []float64
	}
	var all class
	// P classes are disjoint: "even" holds the even P that are not powers
	// of two.
	byP := map[string]*class{"odd": {}, "even": {}, "pow2": {}}
	pred := forest.Prediction{}
	for i := 0; i < n; i++ {
		coll := colls[rng.Intn(len(colls))]
		nodes, ppn := 2+rng.Intn(31), 1+rng.Intn(32)
		f := sys.Features(float64(nodes), float64(ppn), 2+20*rng.Float64())
		c, _ := b.Collective(coll)
		x, err := c.Vector(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Compiled().PredictInto(x, &pred); err != nil {
			t.Fatal(err)
		}
		costs, err := perfmodel.Costs(coll, f)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for k := range costs {
			if costs[k] < costs[best] {
				best = k
			}
		}
		regret := costs[pred.Class]/costs[best] - 1
		p := nodes * ppn
		pc := "even"
		switch {
		case p&(p-1) == 0:
			pc = "pow2"
		case p%2 == 1:
			pc = "odd"
		}
		for _, cl := range []*class{&all, byP[pc]} {
			cl.n++
			cl.regrets = append(cl.regrets, regret)
			if pred.Class == best {
				cl.agree++
			}
		}
	}
	stats := func(cl *class) (agree, mean, p99 float64) {
		sort.Float64s(cl.regrets)
		sum := 0.0
		for _, r := range cl.regrets {
			sum += r
		}
		// Nearest rank, as the benchmark reads its percentiles.
		i := int(math.Ceil(0.99*float64(len(cl.regrets)))) - 1
		return float64(cl.agree) / float64(cl.n), sum / float64(cl.n), cl.regrets[max(i, 0)]
	}
	for _, pc := range []string{"odd", "even", "pow2"} {
		a, m, p := stats(byP[pc])
		t.Logf("P %-4s: %4d points, agreement %.3f, regret mean %.4f, p99 %.3f", pc, byP[pc].n, a, m, p)
	}
	agree, mean, p99 := stats(&all)
	t.Logf("all   : %4d points, agreement %.3f, regret mean %.4f, p99 %.3f", all.n, agree, mean, p99)
	if p99 > 0.3 {
		t.Errorf("p99 regret %.3f, want <= 0.3", p99)
	}
	if agree < 0.95 {
		t.Errorf("agreement %.3f, want >= 0.95", agree)
	}
}
