package admin

import (
	"context"
	"io"
	"os"
	"runtime"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// Bounds for a serving process on the paper bundle with a full default-size
// decision cache, set from the measured 24.2 MiB: the generation is 3.6 MiB
// of live heap, and each cached decision may add its verdict and its key
// and nothing more.
const (
	maxPaperHeapMiB        = 27
	maxPaperObjectsPerItem = 2.5
)

// TestPaperCacheFootprint fills the default 65 536-entry decision cache on
// the paper bundle, loaded through the registry as the server loads it, with
// twice as many cold_batch-shaped points, decoded and selected as the batch
// endpoint does, and bounds the live heap the process then holds and the
// heap objects each cached decision adds.
func TestPaperCacheFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes heap accounting")
	}
	if testing.Short() {
		t.Skip("walks the paper forests 131 072 times")
	}
	const entries, items = 1 << 16, 256
	o := obs.New(io.Discard, obs.LevelError)
	reg := registry.New(o, registry.Config{})
	g, err := reg.Load(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(g.ID()); err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Config{MaxEntries: entries}, o.Registry)
	sel := selector.NewFromSource(reg, o, selector.Config{Cache: c, BatchWorkers: 1})

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
	runtime.KeepAlive(reg)
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

// maxPaperGenerationMiB bounds the live heap of the paper bundle as a
// serving generation, set from the measured 3.6 MiB: 3.3 MiB of compiled
// nodes, 0.2 MiB of distinct leaf distributions and the metadata. A
// generation that keeps its pointer trees again lands at 23.5 MiB, and a
// compile that stops sharing leaf distributions at 7.3 MiB.
const maxPaperGenerationMiB = 4.5

// TestPaperGenerationHeap loads the paper bundle through registry.LoadData,
// the one path from bundle bytes to a serving generation, and bounds the
// live heap the generation adds once the load's garbage is collected.
func TestPaperGenerationHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes heap accounting")
	}
	reg := registry.New(obs.New(io.Discard, obs.LevelError), registry.Config{})
	heap0, _ := liveHeap()
	data, err := os.ReadFile(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadData(data, realBundle); err != nil {
		t.Fatal(err)
	}
	data = nil
	heap1, _ := liveHeap()
	runtime.KeepAlive(reg)
	mib := (float64(heap1) - float64(heap0)) / (1 << 20)
	t.Logf("paper bundle as a serving generation: %.2f MiB of live heap", mib)
	if mib > maxPaperGenerationMiB {
		t.Errorf("the paper generation holds %.2f MiB of live heap, budget %.1f", mib, maxPaperGenerationMiB)
	}
}
