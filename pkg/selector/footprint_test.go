package selector

import (
	"context"
	"runtime"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// liveHeap returns the live heap, in bytes and objects, once two
// collections have settled it.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// maxCacheBytesPerEntry bounds the live heap one cached decision of a
// 14-feature synthetic bundle may hold: its verdict (160 B), its 126-byte
// key and its share of the cache's slot slab and index (measured: 363 B).
// A decision cache that keeps each request's feature map, request ID and
// a list node per entry reads about 1.1 KB.
const maxCacheBytesPerEntry = 450

// TestDecisionCacheBytesPerEntry is the decision cache's footprint guard: a
// full default-size cache, filled through owned batches of 14-feature maps
// as the batch endpoint fills it, may hold so much live heap per entry and
// no more. The points outnumber the slots two to one, so every shard is full
// and half the puts evict.
func TestDecisionCacheBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes heap accounting")
	}
	const entries, batch = 1 << 16, 256
	b, err := synth.New(synth.Config{Seed: 61, Collectives: []string{"bench"}, Trees: 16, Depth: 6, Features: 14, Classes: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	c := cache.New(cache.Config{MaxEntries: entries}, o.Registry)
	s := New(b, o, Config{Cache: c, BatchWorkers: 1})

	ctx := context.Background()
	heap0, objects0 := liveHeap()
	for i := 0; i < 2*entries/batch; i++ {
		pts := synth.Points(int64(1000+i), batch)
		reqs := make([]BatchRequest, batch)
		for j := range reqs {
			reqs[j] = BatchRequest{Collective: "bench", Features: pts[j]}
		}
		for j, r := range s.SelectBatchOwned(ctx, reqs) {
			if r.Err != nil {
				t.Fatalf("batch %d item %d: %v", i, j, r.Err)
			}
		}
	}
	heap1, objects1 := liveHeap()
	n := c.Len()
	runtime.KeepAlive(s)
	if n != entries {
		t.Fatalf("cache holds %d entries after the fill, want %d", n, entries)
	}
	perEntry := float64(heap1-heap0) / float64(n)
	t.Logf("full %d-entry cache: %.1f MiB live heap, %.0f B and %.2f heap objects per entry",
		n, float64(heap1-heap0)/(1<<20), perEntry, float64(objects1-objects0)/float64(n))
	if perEntry > maxCacheBytesPerEntry {
		t.Errorf("a cached decision holds %.0f B of live heap, budget %d", perEntry, maxCacheBytesPerEntry)
	}
}
