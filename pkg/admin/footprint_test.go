package admin

import (
	"context"
	"io"
	"runtime"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// Bounds for a serving process on the paper bundle with a full default-size
// decision cache: the bundle alone is about 25 MiB of live heap, and each
// cached decision may add its verdict and its key and nothing more.
const (
	maxPaperHeapMiB        = 50
	maxPaperObjectsPerItem = 2.5
)

// TestPaperCacheFootprint fills the default 65 536-entry decision cache on
// the paper bundle with twice as many cold_batch-shaped points, decoded and
// selected as the batch endpoint does, and bounds the live heap the process
// then holds and the heap objects each cached decision adds.
func TestPaperCacheFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes heap accounting")
	}
	if testing.Short() {
		t.Skip("walks the paper forests 131 072 times")
	}
	const entries, items = 1 << 16, 256
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(io.Discard, obs.LevelError)
	c := cache.New(cache.Config{MaxEntries: entries}, o.Registry)
	sel := selector.New(b, o, selector.Config{Cache: c, BatchWorkers: 1})

	ctx := context.Background()
	heap0, objects0 := liveHeap()
	for i := 0; i < 2*entries/items; i++ {
		_, body := wireBodies(t, int64(5000+i), items)
		reqs, err := selector.DecodeBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range sel.SelectBatchOwned(ctx, reqs) {
			if r.Err != nil {
				t.Fatalf("batch %d item %d: %v", i, j, r.Err)
			}
		}
	}
	heap1, objects1 := liveHeap()
	n := c.Len()
	runtime.KeepAlive(sel)
	if n != entries {
		t.Fatalf("cache holds %d entries after the fill, want %d", n, entries)
	}
	heapMiB := float64(heap1) / (1 << 20)
	perEntry := float64(objects1-objects0) / float64(n)
	t.Logf("paper bundle: live heap %.1f MiB loaded, %.1f MiB with a full cache; %.0f B and %.2f heap objects per entry",
		float64(heap0)/(1<<20), heapMiB, float64(heap1-heap0)/float64(n), perEntry)
	if heapMiB > maxPaperHeapMiB {
		t.Errorf("live heap at a full cache is %.1f MiB, budget %d", heapMiB, maxPaperHeapMiB)
	}
	if perEntry > maxPaperObjectsPerItem {
		t.Errorf("a cached decision holds %.2f heap objects, budget %.1f", perEntry, maxPaperObjectsPerItem)
	}
}

// liveHeap returns the live heap, in bytes and objects, once two
// collections have settled it.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}
