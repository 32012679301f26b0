package perfmodel_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// features builds a canonical feature map on the mid-range default system.
func features(nodes, ppn, log2Msg float64) map[string]float64 {
	return perfmodel.DefaultSystems[1].Features(nodes, ppn, log2Msg)
}

// className resolves a Best result to its algorithm name.
func className(t *testing.T, collective string, f map[string]float64) string {
	t.Helper()
	cls, err := perfmodel.Best(collective, f)
	if err != nil {
		t.Fatalf("Best(%s): %v", collective, err)
	}
	names, err := perfmodel.AlgorithmNames(collective)
	if err != nil {
		t.Fatal(err)
	}
	return names[cls]
}

// TestRegimes pins the physically expected winners: latency-bound regimes
// (tiny messages, many ranks) go to logarithmic-round algorithms,
// bandwidth-bound regimes (huge messages) to pipelined/contention-free
// ones. These are the textbook α-β results; if a model edit flips one of
// these, the training labels have lost their physical grounding.
func TestRegimes(t *testing.T) {
	cases := []struct {
		collective string
		f          map[string]float64
		want       string
	}{
		// 16 nodes × 16 ranks, 16-byte broadcast: latency-dominated, the
		// binomial tree's log2(256)=8 rounds beat 255 linear sends.
		{"broadcast", features(16, 16, 4), "binomial_tree"},
		// 16 nodes × 4 ranks, 16 MiB broadcast: pipeline streams segments
		// (scatter+allgather's 2βm bandwidth term loses to ~1·βm).
		{"broadcast", features(16, 4, 24), "pipeline"},
		// 16 nodes × 4 ranks (p=64, power of two), tiny allgather:
		// recursive doubling's log2 p rounds win.
		{"allgather", features(16, 4, 2), "recursive_doubling"},
		// p=11 (odd, not a power of two), tiny allgather: Bruck handles
		// any p in ceil(log2 p) rounds without recursive doubling's
		// fix-up penalty or neighbor exchange's odd-p degradation.
		{"allgather", features(11, 1, 2), "bruck"},
		// Even p, 4 MiB allgather: nearest-neighbor exchange, fewest
		// latencies among the contention-free bandwidth algorithms.
		{"allgather", features(8, 4, 22), "neighbor_exchange"},
		// Odd p, 4 MiB allgather: ring (neighbor exchange degrades).
		{"allgather", features(3, 3, 22), "ring"},
		// Large p, tiny alltoall: modified Bruck's log p rounds win.
		{"alltoall", features(32, 8, 2), "modified_bruck"},
		// Even p, 1 MiB alltoall: pairwise exchange, contention-free.
		{"alltoall", features(8, 4, 20), "pairwise"},
	}
	for _, tc := range cases {
		if got := className(t, tc.collective, tc.f); got != tc.want {
			costs, _ := perfmodel.Costs(tc.collective, tc.f)
			t.Errorf("%s nodes=%v ppn=%v log2m=%v: got %q, want %q (costs %v)",
				tc.collective, tc.f["num_nodes"], tc.f["ppn"], tc.f["log2_msg_size"],
				got, tc.want, costs)
		}
	}
}

func TestCostsArePositiveAndFinite(t *testing.T) {
	for _, coll := range perfmodel.CollectiveNames() {
		for _, nodes := range []float64{1, 2, 7, 64} {
			for _, lm := range []float64{0, 10, 26} {
				costs, err := perfmodel.Costs(coll, features(nodes, 8, lm))
				if err != nil {
					t.Fatalf("Costs(%s): %v", coll, err)
				}
				for i, c := range costs {
					if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
						t.Errorf("%s class %d: cost %v not positive-finite (nodes=%v log2m=%v)",
							coll, i, c, nodes, lm)
					}
				}
			}
		}
	}
}

func TestUnknownCollectiveErrors(t *testing.T) {
	if _, err := perfmodel.Best("reduce_scatter", features(4, 4, 10)); err == nil {
		t.Fatal("Best on unsupported collective should error")
	}
	if _, err := perfmodel.Cost("broadcast", 99, features(4, 4, 10)); err == nil {
		t.Fatal("Cost with out-of-range class should error")
	}
	if _, err := perfmodel.AlgorithmNames("nope"); err == nil {
		t.Fatal("AlgorithmNames on unsupported collective should error")
	}
}

// TestSweepDeterministicAndValid: equal configs produce equal datasets,
// every example is fully labeled over the complete request feature set,
// and every supported collective sees at least two distinct winning
// classes (a degenerate single-class sweep would train a useless model).
func TestSweepDeterministicAndValid(t *testing.T) {
	a, err := perfmodel.Sweep(perfmodel.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := perfmodel.Sweep(perfmodel.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two default sweeps differ")
	}
	if a.Len() == 0 {
		t.Fatal("default sweep is empty")
	}
	for i := range a.Examples {
		ex := &a.Examples[i]
		if len(ex.Features) != len(bundle.RequestFeatures) {
			t.Fatalf("example %d has %d features, want the full request set of %d",
				i, len(ex.Features), len(bundle.RequestFeatures))
		}
		names := a.Algorithms[ex.Collective]
		if ex.Label < 0 || ex.Label >= len(names) {
			t.Fatalf("example %d label %d outside [0,%d)", i, ex.Label, len(names))
		}
		if ex.Algorithm != names[ex.Label] {
			t.Fatalf("example %d algorithm %q does not match class %d (%q)",
				i, ex.Algorithm, ex.Label, names[ex.Label])
		}
	}
	for _, coll := range perfmodel.CollectiveNames() {
		counts := a.LabelCounts(coll)
		distinct := 0
		for _, c := range counts {
			if c > 0 {
				distinct++
			}
		}
		if distinct < 2 {
			t.Errorf("%s: sweep labels collapse to %d class(es) (%v)", coll, distinct, counts)
		}
	}
}

// TestDefaultShapeDraw pins the default sweep's job-shape axis: a fixed
// draw, DefaultShapes distinct integer shapes per system inside
// 1..MaxShapeAxis, holding odd, even and power-of-two rank counts on every
// system, with the example count of the grid it replaced (1 980 per
// collective). A draw with replacement repeats points; one without odd P
// leaves the parity features nothing to learn from.
func TestDefaultShapeDraw(t *testing.T) {
	a := perfmodel.DrawShapes(len(perfmodel.DefaultSystems))
	if b := perfmodel.DrawShapes(len(perfmodel.DefaultSystems)); !reflect.DeepEqual(a, b) {
		t.Fatal("two default draws differ")
	}
	for i, shapes := range a {
		sys := perfmodel.DefaultSystems[i].Name
		if len(shapes) != perfmodel.DefaultShapes {
			t.Errorf("%s: %d shapes, want %d", sys, len(shapes), perfmodel.DefaultShapes)
		}
		seen := map[perfmodel.Shape]bool{}
		classes := map[string]int{}
		for _, s := range shapes {
			if seen[s] {
				t.Errorf("%s: shape %v drawn twice", sys, s)
			}
			seen[s] = true
			for _, v := range []float64{s.Nodes, s.PPN} {
				if v != math.Trunc(v) || v < 1 || v > perfmodel.MaxShapeAxis {
					t.Errorf("%s: shape %v leaves the integers 1..%d", sys, s, perfmodel.MaxShapeAxis)
				}
			}
			p := int(s.Nodes * s.PPN)
			switch {
			case p&(p-1) == 0:
				classes["pow2"]++
			case p%2 == 1:
				classes["odd"]++
			default:
				classes["even"]++
			}
		}
		for _, c := range []string{"odd", "even", "pow2"} {
			if classes[c] == 0 {
				t.Errorf("%s: no shape with %s P (%v)", sys, c, classes)
			}
		}
		t.Logf("%s: P classes %v", sys, classes)
	}
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, coll := range perfmodel.CollectiveNames() {
		if n := len(ds.ByCollective()[coll]); n != 1980 {
			t.Errorf("%s: %d examples, want 1980", coll, n)
		}
	}
	if _, err := perfmodel.Sweep(perfmodel.SweepConfig{Nodes: []float64{2}}); err == nil {
		t.Error("a sweep with Nodes but no PPN must be refused")
	}
}

// TestAlgorithmNamesMatchSelectorTable pins the contract between the
// analytical models and the serving layer: class indices produced by the
// trainer must decode to the same algorithm names the selector serves.
func TestAlgorithmNamesMatchSelectorTable(t *testing.T) {
	for coll, names := range perfmodel.Table() {
		served, ok := selector.DefaultAlgorithms[coll]
		if !ok {
			t.Errorf("selector.DefaultAlgorithms missing collective %q", coll)
			continue
		}
		if len(served) < len(names) {
			t.Errorf("%s: selector names %v shorter than perfmodel classes %v", coll, served, names)
			continue
		}
		for i, n := range names {
			if served[i] != n {
				t.Errorf("%s class %d: perfmodel %q vs selector %q", coll, i, n, served[i])
			}
		}
	}
}

func TestDeriveParamsSingleNodeIsSharedMemory(t *testing.T) {
	one := perfmodel.DeriveParams(features(1, 16, 10))
	many := perfmodel.DeriveParams(features(16, 16, 10))
	if one.Beta >= many.Beta {
		t.Errorf("intra-node beta %v should beat the blended inter-node beta %v", one.Beta, many.Beta)
	}
	if one.Alpha >= many.Alpha {
		t.Errorf("intra-node alpha %v should beat the blended inter-node alpha %v", one.Alpha, many.Alpha)
	}
	if one.P != 16 || many.P != 256 {
		t.Errorf("P = %d/%d, want 16/256", one.P, many.P)
	}
}
