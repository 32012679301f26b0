package selector_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// nameEvidence is what the paper bundle's decisions say about the names
// the selector serves for them, over one seeded draw.
type nameEvidence struct {
	points  int
	asNamed int // served name == perfmodel.Best's name
	relabel int // agreement under the best many-to-one class → name map
	// alltoall only: class 4, served as two_proc, an algorithm defined
	// for exactly two ranks.
	twoProcBig, bigP int // picks and points at P > 2
	twoProcTwo, pTwo int // picks and points at P = 2
}

// TestPaperBundleNameEvidence pins how the paper bundle's decisions agree
// with perfmodel under the names served today (selector.DefaultAlgorithms),
// so that any later naming decision has to move a pinned number. Points:
// seed 1, 4 000 per DefaultSystems member and collective, integer nodes
// 2–32 and ppn 1–32, log2 size U(2, 22); then 2 000 per system at P = 2,
// alternating 2 nodes × 1 rank and 1 node × 2 ranks.
//
// The relabel maps each paper class to the perfmodel algorithm it agrees
// with most often. It is fitted to perfmodel, so it bounds what renaming
// can show; it is not the right map. The two_proc counts need no
// perfmodel: a name defined only for P = 2 that is picked at P > 2 and
// never at P = 2 cannot be right.
func TestPaperBundleNameEvidence(t *testing.T) {
	b, err := bundle.Load("../../.pmlbench/bundle_all_full.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sel := selector.New(b, obs.NewForTest(), selector.Config{})
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	table := perfmodel.Table()

	got := make(map[string]*nameEvidence)
	for _, coll := range []string{"allgather", "alltoall"} {
		ev := &nameEvidence{}
		got[coll] = ev
		confusion := make(map[[2]int]int)
		pick := func(f map[string]float64) int {
			d, err := sel.Select(ctx, coll, f)
			if err != nil {
				t.Fatalf("%s: %v", coll, err)
			}
			best, err := perfmodel.Best(coll, f)
			if err != nil {
				t.Fatal(err)
			}
			ev.points++
			if d.Algorithm == table[coll][best] {
				ev.asNamed++
			}
			confusion[[2]int{d.Class, best}]++
			return d.Class
		}
		for _, sys := range perfmodel.DefaultSystems {
			for i := 0; i < 4000; i++ {
				nodes, ppn := 2+rng.Intn(31), 1+rng.Intn(32)
				class := pick(sys.Features(float64(nodes), float64(ppn), 2+20*rng.Float64()))
				if coll == "alltoall" && nodes*ppn > 2 {
					ev.bigP++
					if class == 4 {
						ev.twoProcBig++
					}
				}
			}
		}
		best := make(map[int]int)
		for k, n := range confusion {
			best[k[0]] = max(best[k[0]], n)
		}
		for _, n := range best {
			ev.relabel += n
		}
		if coll != "alltoall" {
			continue
		}
		for _, sys := range perfmodel.DefaultSystems {
			for i := 0; i < 2000; i++ {
				nodes, ppn := 2-i%2, 1+i%2
				f := sys.Features(float64(nodes), float64(ppn), 2+20*rng.Float64())
				d, err := sel.Select(ctx, coll, f)
				if err != nil {
					t.Fatal(err)
				}
				ev.pTwo++
				if d.Class == 4 {
					ev.twoProcTwo++
				}
			}
		}
	}
	for coll, ev := range got {
		t.Logf("%s: agreement as named %d/%d = %.3f, after the best relabel %d/%d = %.3f; two_proc at P>2 %d/%d, at P=2 %d/%d",
			coll, ev.asNamed, ev.points, float64(ev.asNamed)/float64(ev.points),
			ev.relabel, ev.points, float64(ev.relabel)/float64(ev.points),
			ev.twoProcBig, ev.bigP, ev.twoProcTwo, ev.pTwo)
	}
	// As named: allgather 0.064, far below the 0.25 of a uniform random pick
	// over its four classes; alltoall 0.308. Relabelled: 0.805 and 0.833.
	// two_proc:
	// 1 133 of 11 986 points at P > 2, 0 of 6 000 at P = 2.
	want := map[string]nameEvidence{
		"allgather": {points: 12000, asNamed: 764, relabel: 9662},
		"alltoall": {points: 12000, asNamed: 3695, relabel: 9994,
			twoProcBig: 1133, bigP: 11986, twoProcTwo: 0, pTwo: 6000},
	}
	for coll, w := range want {
		if *got[coll] != w {
			t.Errorf("%s: evidence %+v, want %+v", coll, *got[coll], w)
		}
	}
}
