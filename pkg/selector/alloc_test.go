package selector

import (
	"context"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// allocSelector builds a cached selector over a full-feature synthetic
// bundle, optionally with the model-health observatory wired in. The bundle
// carries a training reference for every default drift feature so the
// instrumented variant exercises the sketch path, window rotation included.
func allocSelector(t *testing.T, withHealth bool) *Selector {
	t.Helper()
	bd, err := synth.New(synth.Config{Seed: 51, Collectives: []string{"bench"}, Trees: 64, Depth: 8, Features: 14, Classes: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := bundle.FeatureDist{Edges: []float64{4, 64, 1024}, Counts: []uint64{10, 10, 10, 10}}
	bd.Stats = &bundle.FeatureStats{
		Source: "alloc-test",
		Features: map[string]bundle.FeatureDist{
			"num_nodes": ref, "ppn": ref, "log2_msg_size": ref,
		},
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	cfg := Config{Cache: cache.New(cache.Config{}, o.Registry)}
	if withHealth {
		// A small window forces rotations (and so PSI recomputation) inside
		// the measured loop; rotation must be allocation-free too.
		cfg.Health = modelhealth.New(o.Registry, modelhealth.Config{Window: 32})
	}
	return New(bd, o, cfg)
}

// TestSelectHealthZeroAllocOverhead pins the observatory's hot-path
// contract: wiring model health into a selector adds zero allocations to
// the warm (cache-hit) Select path. Measured differentially so the guard
// tracks the baseline instead of a brittle absolute count.
func TestSelectHealthZeroAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	pt := synth.Points(51, 1)[0]
	measure := func(s *Selector) float64 {
		ctx := context.Background()
		if _, err := s.Select(ctx, "bench", pt); err != nil { // warm the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2000, func() {
			d, err := s.Select(ctx, "bench", pt)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Cached {
				t.Fatal("iteration missed the cache")
			}
		})
	}

	base := measure(allocSelector(t, false))
	instrumented := measure(allocSelector(t, true))
	if instrumented > base {
		t.Fatalf("model health adds %.1f allocations per warm Select (%.1f -> %.1f), want 0 added",
			instrumented-base, base, instrumented)
	}
}

// TestSelectBatchAllocsPerItem is the batch path's allocation budget: a
// 256-item owned batch of never-seen points on a cached selector — every
// item misses, walks the forest and is put — may allocate so much per item
// and no more. What is left is what outlives the call: the decision (with
// its probabilities and votes inline), its request ID, its cache key and the
// cache's own entry and list element; everything that dies with the batch
// comes from per-batch slabs.
func TestSelectBatchAllocsPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const items, runs = 256, 20
	s := allocSelector(t, false)
	points := synth.Points(52, items*(runs+1)) // AllocsPerRun calls once more to warm up
	ctx := context.Background()
	next := 0
	perBatch := testing.AllocsPerRun(runs, func() {
		reqs := make([]BatchRequest, items)
		for i := range reqs {
			reqs[i] = BatchRequest{Collective: "bench", Features: points[next]}
			next++
		}
		for i, r := range s.SelectBatchOwned(ctx, reqs) {
			if r.Err != nil || r.Decision.Cached {
				t.Fatalf("item %d: err %v, cached %v", i, r.Err, r.Decision != nil && r.Decision.Cached)
			}
		}
	})
	perItem := perBatch / items
	t.Logf("all-miss owned batch: %.2f allocations per item", perItem)
	// 10.1 when a batch was a loop of singles; those five now, plus the
	// slabs' share.
	const budget = 5.5
	if perItem > budget {
		t.Errorf("all-miss owned batch costs %.2f allocations per item, budget %.1f", perItem, budget)
	}
}
