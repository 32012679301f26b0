package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestConcurrentSwapUnderLoad hammers Select and SelectBatch from many
// goroutines while generations are loaded, promoted, and rolled back
// underneath them. It asserts:
//
//   - zero failed requests: a swap must never be observable as an error;
//   - every decision is self-consistent: its Generation field names a
//     loaded generation and its Class equals what that generation's forest
//     (and no other's) computes for the same features on the reference
//     walk — which, with a decision cache, also proves the cache never
//     crosses generations;
//   - generation ids handed out by the registry are strictly monotonic.
//
// Run under -race this is the swap-safety acceptance test of the registry;
// the compiled arena is shared by every goroutine touching a generation.
// It runs with and without a decision cache: without one every decision is
// a forest walk on the generation the call found active.
func TestConcurrentSwapUnderLoad(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			concurrentSwapUnderLoad(t, cached)
		})
	}
}

func concurrentSwapUnderLoad(t *testing.T, cached bool) {
	const (
		workers   = 8
		swaps     = 30
		batchSize = 8
	)
	o := obs.NewForTest()
	r := New(o, Config{Keep: 64}) // retain everything: verifiers need old bundles

	// All generations the test rotates through, verified against by id.
	// sync.Map: the swap loop stores while worker goroutines load.
	// Small forests keep the race-instrumented run fast; swap safety does
	// not depend on model size.
	//
	// A generation serves from its compiled forests alone, so the reference
	// walk runs on a separate parse of the same bytes.
	var bundles sync.Map // uint64 -> *bundle.Bundle
	load := func(seed int64) uint64 {
		data, err := synth.JSON(synth.Config{Seed: seed, Trees: 4, Depth: 3})
		if err != nil {
			t.Fatalf("synth.JSON: %v", err)
		}
		g, err := r.LoadData(data, fmt.Sprintf("mem://seed-%d", seed))
		if err != nil {
			t.Fatalf("load seed %d: %v", seed, err)
		}
		ref, err := bundle.Parse(data)
		if err != nil {
			t.Fatalf("parse seed %d: %v", seed, err)
		}
		bundles.Store(g.ID(), ref)
		return g.ID()
	}
	first := load(1)
	if _, err := r.Promote(first); err != nil {
		t.Fatalf("initial promote: %v", err)
	}

	cfg := selector.Config{}
	if cached {
		cfg.Cache = cache.New(cache.Config{MaxEntries: 4096}, o.Registry)
	}
	sel := selector.NewFromSource(r, o, cfg)

	points := synth.Points(99, 32)
	ctx := context.Background()
	var failures atomic.Int64
	var verified atomic.Int64
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup

	verify := func(collective string, features map[string]float64, gen uint64, class int) error {
		v, ok := bundles.Load(gen)
		if !ok {
			return fmt.Errorf("decision names unknown generation %d", gen)
		}
		c, ok := v.(*bundle.Bundle).Collective(collective)
		if !ok {
			return fmt.Errorf("generation %d has no collective %q", gen, collective)
		}
		x, err := c.Vector(features)
		if err != nil {
			return err
		}
		pred, err := c.Forest.Predict(x)
		if err != nil {
			return err
		}
		if pred.Class != class {
			return fmt.Errorf("generation %d predicts class %d for this point, decision says %d (stale cross-generation result)",
				gen, pred.Class, class)
		}
		return nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				p := points[i%len(points)]
				i++
				if i%3 == 0 {
					reqs := make([]selector.BatchRequest, batchSize)
					for j := range reqs {
						reqs[j] = selector.BatchRequest{Collective: "alltoall", Features: points[(i+j)%len(points)]}
					}
					for j, res := range sel.SelectBatch(ctx, reqs) {
						if res.Err != nil {
							failures.Add(1)
							t.Errorf("batch item failed during swap: %v", res.Err)
							continue
						}
						if err := verify("alltoall", reqs[j].Features, res.Decision.Generation, res.Decision.Class); err != nil {
							failures.Add(1)
							t.Errorf("batch verify: %v", err)
						}
						verified.Add(1)
					}
					continue
				}
				d, err := sel.Select(ctx, "allgather", p)
				if err != nil {
					failures.Add(1)
					t.Errorf("Select failed during swap: %v", err)
					continue
				}
				if err := verify("allgather", p, d.Generation, d.Class); err != nil {
					failures.Add(1)
					t.Errorf("verify: %v", err)
				}
				verified.Add(1)
			}
		}(w)
	}

	// Swap loop: stage a new generation, promote it, and every third swap
	// roll back, all while traffic flows. Loaded ids must be monotonic.
	lastID := first
	for s := 0; s < swaps; s++ {
		id := load(int64(s + 2))
		if id <= lastID {
			t.Fatalf("generation ids not monotonic: %d after %d", id, lastID)
		}
		lastID = id
		if _, err := r.Promote(id); err != nil {
			t.Fatalf("promote %d: %v", id, err)
		}
		if s%3 == 2 {
			if _, err := r.Rollback(); err != nil {
				t.Fatalf("rollback after promote %d: %v", id, err)
			}
		}
	}
	close(stopTraffic)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed or inconsistent requests during %d swaps", n, swaps)
	}
	if verified.Load() == 0 {
		t.Fatal("no decisions verified — traffic never ran")
	}
	t.Logf("verified %d decisions across %d promotes (+rollbacks) with zero failures", verified.Load(), swaps)
}
