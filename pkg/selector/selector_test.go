package selector

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

const realBundle = "../../.pmlbench/bundle_all_full.json"

var allgatherFeatures = map[string]float64{
	"log2_msg_size": 20,
	"ppn":           32,
	"num_nodes":     64,
	"thread_count":  128,
	"l3_cache_mib":  24,
}

func newTestSelector(t *testing.T) (*Selector, *obs.Obs) {
	t.Helper()
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	o := obs.NewForTest()
	return New(b, o, Config{RingSize: 4}), o
}

func TestSelectRecordsDecisionAndMetrics(t *testing.T) {
	s, o := newTestSelector(t)
	d, err := s.Select(context.Background(), "allgather", allgatherFeatures)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Golden case: this vector lands on class 1 with a unanimous vote.
	if d.Class != 1 || d.Algorithm != "bruck" {
		t.Errorf("decision = class %d algorithm %q, want class 1 %q", d.Class, d.Algorithm, "bruck")
	}
	if d.Votes[1] != 60 {
		t.Errorf("votes = %v, want unanimous class 1 of 60 trees", d.Votes)
	}
	if d.RequestID == "" {
		t.Error("decision missing request ID")
	}
	if d.LatencyNS <= 0 {
		t.Error("decision missing latency")
	}

	recent := s.Recent(10)
	if len(recent) != 1 || recent[0].Algorithm != d.Algorithm || recent[0].RequestID != d.RequestID {
		t.Fatalf("ring buffer does not hold the decision: %+v", recent)
	}

	var expo strings.Builder
	o.Registry.WritePrometheus(&expo)
	out := expo.String()
	for _, want := range []string{
		`pmlmpi_selections_total{collective="allgather",algorithm="bruck"} 1`,
		`pmlmpi_select_duration_seconds_count{collective="allgather",algorithm="bruck",path="cold"} 1`,
		`pmlmpi_forest_predict_duration_seconds_count{collective="allgather"} 1`,
		"pmlmpi_bundle_loaded 1",
		`pmlmpi_span_duration_seconds_count{span="selector.decide"} 1`,
		`pmlmpi_span_duration_seconds_count{span="feature.extract"} 1`,
		`pmlmpi_span_duration_seconds_count{span="forest.eval"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestSelectUnknownCollective(t *testing.T) {
	s, _ := newTestSelector(t)
	_, err := s.Select(context.Background(), "broadcast", allgatherFeatures)
	if err == nil || !strings.Contains(err.Error(), `unknown collective "broadcast"`) {
		t.Fatalf("expected unknown-collective error, got %v", err)
	}
	if got := s.selErrors.Value("broadcast", "unknown_collective"); got != 1 {
		t.Errorf("error counter = %v, want 1", got)
	}
}

func TestSelectMissingFeature(t *testing.T) {
	s, _ := newTestSelector(t)
	_, err := s.Select(context.Background(), "allgather", map[string]float64{"ppn": 4})
	if err == nil || !strings.Contains(err.Error(), "missing feature") {
		t.Fatalf("expected missing-feature error, got %v", err)
	}
	if got := s.selErrors.Value("allgather", "missing_feature"); got != 1 {
		t.Errorf("error counter = %v, want 1", got)
	}
}

// TestUncompiledForestIsForestError: the compiled forest is the one serving
// evaluator, so a collective without one fails as a forest error, single or
// batched, cached or not — even where the reference walk would have
// answered. Only an in-memory bundle can hold such a collective: its leaf at
// node 2 has the wrong arity, so the forest fails Validate and does not
// compile, and the vector below never reaches that leaf.
func TestUncompiledForestIsForestError(t *testing.T) {
	broken := &forest.Forest{NClasses: 2, Trees: []forest.Tree{{Nodes: []forest.Node{
		{F: 0, T: 0.5, L: 1, R: 2},
		{F: -1, D: []float64{1, 0}},
		{F: -1, D: []float64{1}},
	}}}}
	features := map[string]float64{"log2_msg_size": 0}
	b := &bundle.Bundle{Collectives: map[string]*bundle.Collective{"allgather": {
		Name: "allgather", Features: []int{0}, FeatureNames: []string{"log2_msg_size"}, Forest: broken,
	}}}
	if _, err := b.Collectives["allgather"].Forest.Predict([]float64{0}); err != nil {
		t.Fatalf("the reference walk must answer this vector: %v", err)
	}
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			o := obs.NewForTest()
			cfg := Config{}
			if cached {
				cfg.Cache = cache.New(cache.Config{}, o.Registry)
			}
			s := New(b, o, cfg)
			const want = `collective "allgather": forest did not compile`
			if _, err := s.Select(context.Background(), "allgather", features); err == nil || err.Error() != want {
				t.Errorf("Select error %v, want %q", err, want)
			}
			res := s.SelectBatch(context.Background(), []BatchRequest{{"allgather", features}, {"allgather", features}})
			for i, r := range res {
				if r.Err == nil || r.Err.Error() != want {
					t.Errorf("batch item %d error %v, want %q", i, r.Err, want)
				}
			}
			if got := s.selErrors.Value("allgather", "forest_error"); got != 3 {
				t.Errorf("forest_error count = %v, want 3", got)
			}
		})
	}
}

func TestRingEvictsOldest(t *testing.T) {
	s, _ := newTestSelector(t)
	for i := 0; i < 6; i++ { // ring capacity is 4
		if _, err := s.Select(context.Background(), "allgather", allgatherFeatures); err != nil {
			t.Fatal(err)
		}
	}
	all := s.Recent(0)
	if len(all) != 4 {
		t.Fatalf("ring holds %d decisions, want capacity 4", len(all))
	}
	if got := s.Recent(2); len(got) != 2 {
		t.Fatalf("Recent(2) returned %d", len(got))
	}
	// Newest first: each entry's timestamp must be >= the next one's.
	for i := 0; i+1 < len(all); i++ {
		if all[i].Time.Before(all[i+1].Time) {
			t.Errorf("decisions not newest-first at %d", i)
		}
	}
}

func TestAlgorithmNameFallback(t *testing.T) {
	s, _ := newTestSelector(t)
	if got := s.AlgorithmName("allgather", 2); got != "ring" {
		t.Errorf("AlgorithmName = %q, want ring", got)
	}
	if got := s.AlgorithmName("allgather", 99); got != "class_99" {
		t.Errorf("out-of-table class = %q, want class_99", got)
	}
	if got := s.AlgorithmName("mystery", 0); got != "class_0" {
		t.Errorf("unknown collective = %q, want class_0", got)
	}
}

func TestDecisionFeaturesAreCopied(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Without a cache every select is cold; with one, the second is a hit,
	// whose envelope must copy the caller's map as a miss does.
	for _, c := range []*cache.Cache{nil, cache.New(cache.Config{}, obs.NewRegistry())} {
		s := New(b, obs.NewForTest(), Config{RingSize: 4, Cache: c})
		for i := 0; i < 2; i++ {
			feats := map[string]float64{}
			for k, v := range allgatherFeatures {
				feats[k] = v
			}
			d, err := s.Select(context.Background(), "allgather", feats)
			if err != nil {
				t.Fatal(err)
			}
			if want := c != nil && i == 1; d.Cached != want {
				t.Fatalf("select %d: cached %v, want %v", i, d.Cached, want)
			}
			feats["ppn"] = -1 // caller mutates its map after the call
			if d.Features["ppn"] != allgatherFeatures["ppn"] || s.Recent(1)[0].Features["ppn"] != allgatherFeatures["ppn"] {
				t.Errorf("select %d (cached %v) shares the caller's feature map instead of copying it", i, d.Cached)
			}
		}
	}
}

// pathCount sums one path's pmlmpi_select_duration_seconds observations for
// a collective across its algorithms.
func pathCount(s *Selector, collective, path string) (n uint64) {
	s.duration.Each(func(lv []string, b obs.BucketSnapshot) {
		if lv[0] == collective && lv[2] == path {
			n += b.Count
		}
	})
	return n
}
