package bundle_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// TestFeatureSpaceFitsMaxFeatures guards the fixed feature buffers: the
// selector's stack vector and the flight recorder's captured vector are
// sized by MaxFeatures, and the benchmark's ladder keeps its own
// `var xbuf [16]float64` in bench/ladder.go. Growing CanonicalFeatures past
// the constant would send the selector to the heap and slice the ladder's
// buffer out of range.
func TestFeatureSpaceFitsMaxFeatures(t *testing.T) {
	if n := len(bundle.CanonicalFeatures); n > bundle.MaxFeatures {
		t.Fatalf("CanonicalFeatures has %d entries, past MaxFeatures = %d: raise MaxFeatures "+
			"and bench/ladder.go's xbuf [16]float64 buffer together", n, bundle.MaxFeatures)
	}
	if got := bundle.CanonicalFeatures[:len(bundle.RequestFeatures)]; strings.Join(got, ",") != strings.Join(bundle.RequestFeatures, ",") {
		t.Fatalf("RequestFeatures %v is not the head of CanonicalFeatures", bundle.RequestFeatures)
	}
	if bundle.CanonicalFeatures[14] != "ranks_odd" || bundle.CanonicalFeatures[15] != "ranks_pow2" {
		t.Fatalf("derived features moved: indices 14-15 are %v", bundle.CanonicalFeatures[14:])
	}
}

func TestFeatureValueDerivesRankParity(t *testing.T) {
	const odd, pow2 = 14, 15
	cases := []struct {
		nodes, ppn float64
		odd, pow2  float64
	}{
		{1, 1, 1, 1},
		{2, 1, 0, 1},
		{3, 1, 1, 0},
		{3, 5, 1, 0},
		{4, 8, 0, 1},
		{6, 4, 0, 0},
		{32, 32, 0, 1},
		{31, 31, 1, 0},
		{2.5, 2, 1, 0}, // P rounds to 5
		{0, 16, 0, 0},  // P = 0 is neither
		{math.NaN(), 4, 0, 0},
		{math.Inf(1), 4, 0, 0},
	}
	for _, c := range cases {
		f := map[string]float64{"num_nodes": c.nodes, "ppn": c.ppn}
		for _, want := range []struct {
			idx int
			v   float64
		}{{odd, c.odd}, {pow2, c.pow2}} {
			v, missing := bundle.FeatureValue(f, want.idx)
			if missing != "" || v != want.v {
				t.Errorf("nodes %v ppn %v: feature %s = %v (missing %q), want %v",
					c.nodes, c.ppn, bundle.CanonicalFeatures[want.idx], v, missing, want.v)
			}
		}
	}
	if _, missing := bundle.FeatureValue(map[string]float64{"num_nodes": 2}, odd); missing != "ppn" {
		t.Errorf("derived feature without ppn: missing %q, want ppn", missing)
	}
	if v, missing := bundle.FeatureValue(map[string]float64{"ppn": 7}, 1); missing != "" || v != 7 {
		t.Errorf("request feature ppn = %v (missing %q), want 7", v, missing)
	}
}

// TestVectorIntoComputesDerivedFeatures: a collective that reads the
// derived features gets them from num_nodes and ppn, and a value sent
// under a derived name is never read.
func TestVectorIntoComputesDerivedFeatures(t *testing.T) {
	c := &bundle.Collective{
		Name:         "allgather",
		Features:     []int{0, 1, 14, 15},
		FeatureNames: []string{"num_nodes", "ppn", "ranks_odd", "ranks_pow2"},
		Forest:       &forest.Forest{NClasses: 2},
	}
	x := make([]float64, 4)
	f := map[string]float64{"num_nodes": 3, "ppn": 5, "ranks_odd": 0, "ranks_pow2": 1}
	if err := c.VectorInto(x, f); err != nil {
		t.Fatal(err)
	}
	if want := []float64{3, 5, 1, 0}; !reflect.DeepEqual(x, want) {
		t.Fatalf("vector %v, want %v", x, want)
	}
	err := c.VectorInto(x, map[string]float64{"num_nodes": 3})
	if err == nil || !strings.Contains(err.Error(), `missing feature "ppn"`) || strings.Contains(err.Error(), "ranks_") {
		t.Fatalf("missing ppn: err = %v, want it named without the derived names", err)
	}
}

func TestCheckRequestFeaturesRefusesDerivedNames(t *testing.T) {
	if err := bundle.CheckRequestFeatures(map[string]float64{"num_nodes": 2, "ppn": 4}); err != nil {
		t.Fatalf("request features refused: %v", err)
	}
	for _, name := range []string{"ranks_odd", "ranks_pow2"} {
		err := bundle.CheckRequestFeatures(map[string]float64{"num_nodes": 2, name: 1})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s sent: err = %v, want it refused by name", name, err)
		}
	}
}

// TestOlderBundlesKeepTheirFeatures: a bundle whose collectives read only
// request features (the paper bundle) decides from the request alone.
func TestOlderBundlesKeepTheirFeatures(t *testing.T) {
	b, err := bundle.Load("../../.pmlbench/bundle_all_full.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range b.Collectives {
		for _, idx := range c.Features {
			if idx >= len(bundle.RequestFeatures) {
				t.Errorf("%s reads %s, which the paper bundle predates", name, bundle.CanonicalFeatures[idx])
			}
		}
	}
}
