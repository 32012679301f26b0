package admin

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// newWireServer wires the serving path like cmd/pmlmpi-server at its
// defaults — paper bundle, decision cache, SLO tracker, model health, info
// log level, 1 % trace sampling — with the log going nowhere.
func newWireServer(tb testing.TB, cacheEntries int) *Server {
	tb.Helper()
	b, err := bundle.Load(realBundle)
	if err != nil {
		tb.Fatal(err)
	}
	o := obs.New(io.Discard, obs.LevelInfo)
	o.Traces.SetSampleRate(0.01)
	health := modelhealth.New(o.Registry, modelhealth.Config{})
	sel := selector.New(b, o, selector.Config{
		Cache:        cache.New(cache.Config{MaxEntries: cacheEntries}, o.Registry),
		SLO:          slo.New(o.Registry, slo.Objectives{}),
		Health:       health,
		BatchWorkers: 1,
	})
	return New(sel, o, Config{Health: health})
}

// wireBodies renders n distinct select items shaped like a tuning client's
// — one cluster's hardware profile, whole-number job geometry, a continuous
// message size — and the batch envelope around them.
func wireBodies(tb testing.TB, seed int64, n int) (items [][]byte, batch []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	system := perfmodel.DefaultSystems[1]
	var env bytes.Buffer
	env.WriteString(`{"requests":[`)
	for i := 0; i < n; i++ {
		item, err := json.Marshal(selector.BatchRequest{
			Collective: []string{"allgather", "alltoall"}[i%2],
			Features:   system.Features(float64(2+rng.Intn(31)), float64(1+rng.Intn(32)), 2+20*rng.Float64()),
		})
		if err != nil {
			tb.Fatal(err)
		}
		items = append(items, item)
		if i > 0 {
			env.WriteByte(',')
		}
		env.Write(item)
	}
	env.WriteString(`]}`)
	return items, env.Bytes()
}

// discardWriter is a ResponseWriter that keeps nothing, so the guards count
// the handler's allocations and not a recorder's growing body buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// The allocation budgets are the measured counts (15.8 per cold batch item,
// 28 per cached single, httptest.NewRequest's ten included) plus a little
// headroom. With the reflective codec, per-item spans and per-item log
// records the same tests read 121 and 114; any of those creeping back lands
// far above the budgets.
const (
	maxAllocsPerColdBatchItem = 18
	maxAllocsPerCachedSelect  = 32
)

// TestBatchHandlerAllocsPerItem bounds allocations per item of a cold
// 256-item batch through ServeHTTP. Every batch is new points, so every
// item walks the forest and is put into the cache.
func TestBatchHandlerAllocsPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const items, runs = 256, 8
	srv := newWireServer(t, 1<<16)
	bodies := make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range bodies {
		_, bodies[i] = wireBodies(t, int64(100+i), items)
	}
	w := &discardWriter{h: make(http.Header)}
	run := 0
	perBatch := testing.AllocsPerRun(runs, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(bodies[run]))
		run++
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("batch status %d", w.code)
		}
	})
	perItem := perBatch / items
	t.Logf("%.1f allocations per cold batch item (%.0f per %d-item call)", perItem, perBatch, items)
	if perItem > maxAllocsPerColdBatchItem {
		t.Errorf("cold batch item costs %.1f allocations through the handler, budget %d",
			perItem, maxAllocsPerColdBatchItem)
	}
}

// TestSelectHandlerAllocs bounds allocations of one cached single select
// through ServeHTTP, request construction included (it is the same on
// both sides of any change).
func TestSelectHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	srv := newWireServer(t, 1<<16)
	items, _ := wireBodies(t, 7, 1)
	w := &discardWriter{h: make(http.Header)}
	perCall := testing.AllocsPerRun(500, func() {
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(items[0])))
		if w.code != http.StatusOK {
			t.Fatalf("select status %d", w.code)
		}
	})
	t.Logf("%.1f allocations per cached select through the handler", perCall)
	if perCall > maxAllocsPerCachedSelect {
		t.Errorf("cached select costs %.1f allocations through the handler, budget %d",
			perCall, maxAllocsPerCachedSelect)
	}
}

// BenchmarkBatchHandlerCold is the cold_batch inner loop in-process: 256 new
// points per call through ServeHTTP on the paper bundle, every put evicting.
func BenchmarkBatchHandlerCold(b *testing.B) {
	const items = 256
	srv := newWireServer(b, 4096)
	bodies := make([][]byte, 64)
	for i := range bodies {
		_, bodies[i] = wireBodies(b, int64(100+i), items)
	}
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select/batch", bytes.NewReader(bodies[i%len(bodies)])))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/items, "ns/item")
}

// BenchmarkSelectHandlerHit is the hot_singles inner loop in-process.
func BenchmarkSelectHandlerHit(b *testing.B) {
	srv := newWireServer(b, 4096)
	items, _ := wireBodies(b, 7, 1)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(items[0])))
	}
}
