package selector

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

func newSynthSelector(t testing.TB, cfg Config) *Selector {
	t.Helper()
	b, err := synth.New(synth.Config{Seed: 31, Trees: 16, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	return New(b, o, cfg)
}

func TestSelectBatchResultsArePositional(t *testing.T) {
	s := newSynthSelector(t, Config{BatchWorkers: 4})
	pts := synth.Points(31, 6)
	reqs := make([]BatchRequest, 0, 12)
	for _, pt := range pts {
		reqs = append(reqs,
			BatchRequest{Collective: "allgather", Features: pt},
			BatchRequest{Collective: "alltoall", Features: pt})
	}
	results := s.SelectBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Decision.Collective != reqs[i].Collective {
			t.Errorf("item %d answers collective %q, want %q", i, r.Decision.Collective, reqs[i].Collective)
		}
		// Each batch result must match the equivalent single Select.
		single, err := s.Select(context.Background(), reqs[i].Collective, reqs[i].Features)
		if err != nil {
			t.Fatal(err)
		}
		if single.Class != r.Decision.Class || single.Algorithm != r.Decision.Algorithm {
			t.Errorf("item %d: batch picked class %d %q, single picked class %d %q",
				i, r.Decision.Class, r.Decision.Algorithm, single.Class, single.Algorithm)
		}
	}
}

func TestSelectBatchReportsItemErrorsWithoutAborting(t *testing.T) {
	s := newSynthSelector(t, Config{BatchWorkers: 2})
	pt := synth.Points(31, 1)[0]
	reqs := []BatchRequest{
		{Collective: "allgather", Features: pt},
		{Collective: "no-such-collective", Features: pt},
		{Collective: "alltoall", Features: map[string]float64{"ppn": 1}}, // missing features
		{Collective: "alltoall", Features: pt},
	}
	results := s.SelectBatch(context.Background(), reqs)
	if results[0].Err != nil || results[3].Err != nil {
		t.Errorf("good items failed: %v, %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "unknown collective") {
		t.Errorf("item 1 error = %v, want unknown collective", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "missing feature") {
		t.Errorf("item 2 error = %v, want missing feature", results[2].Err)
	}
}

func TestSelectBatchEmptyAndSequentialFallback(t *testing.T) {
	s := newSynthSelector(t, Config{BatchWorkers: 1}) // forces the sequential path
	if got := s.SelectBatch(context.Background(), nil); len(got) != 0 {
		t.Errorf("nil batch returned %d results", len(got))
	}
	pt := synth.Points(31, 1)[0]
	results := s.SelectBatch(context.Background(), []BatchRequest{{Collective: "allgather", Features: pt}})
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("sequential batch = %+v", results)
	}
}

func TestSelectBatchCancelledContext(t *testing.T) {
	s := newSynthSelector(t, Config{BatchWorkers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pt := synth.Points(31, 1)[0]
	results := s.SelectBatch(ctx, []BatchRequest{
		{Collective: "allgather", Features: pt},
		{Collective: "alltoall", Features: pt},
	})
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("item %d succeeded under a cancelled context", i)
		}
	}
}

func TestSelectBatchRecordsMetrics(t *testing.T) {
	s := newSynthSelector(t, Config{BatchWorkers: 4})
	pt := synth.Points(31, 1)[0]
	s.SelectBatch(context.Background(), []BatchRequest{
		{Collective: "allgather", Features: pt},
		{Collective: "alltoall", Features: pt},
	})
	if got := s.batches.Value(); got != 1 {
		t.Errorf("batch counter = %v, want 1", got)
	}
	if got := s.batchSize.Count(); got != 1 {
		t.Errorf("batch size histogram count = %v, want 1", got)
	}
}

// TestBatchLatencyIsAnItemsShareOfItsPhases pins what latency_ns means for a
// batch item: every item carries the batch's start time; the misses of one
// collective share one latency (an even share of lookup plus an even share of
// their forest evaluation), the hits share the lookup share alone, and all
// of them together stay within the wall time of the call.
func TestBatchLatencyIsAnItemsShareOfItsPhases(t *testing.T) {
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	b, err := synth.New(synth.Config{Seed: 31, Trees: 16, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, o, Config{BatchWorkers: 1, Cache: cache.New(cache.Config{}, o.Registry)})
	reqs := batchOf(synth.Points(32, 100))

	for pass, wantCached := range []bool{false, true} {
		before := time.Now()
		results := s.SelectBatch(context.Background(), reqs)
		wall := time.Since(before)

		byCollective := make(map[string]int64)
		var sum int64
		for i, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			d := r.Decision
			if d.Cached != wantCached {
				t.Fatalf("pass %d item %d: cached = %v", pass, i, d.Cached)
			}
			if !d.Time.Equal(results[0].Decision.Time) || d.Time.Before(before) {
				t.Errorf("pass %d item %d: time %v, want the batch's own start %v", pass, i, d.Time, results[0].Decision.Time)
			}
			if d.LatencyNS <= 0 {
				t.Errorf("pass %d item %d: latency %d", pass, i, d.LatencyNS)
			}
			if share, seen := byCollective[d.Collective]; seen && share != d.LatencyNS {
				t.Errorf("pass %d item %d: latency %d, the other %s items have %d", pass, i, d.LatencyNS, d.Collective, share)
			}
			byCollective[d.Collective] = d.LatencyNS
			sum += d.LatencyNS
		}
		if wantCached && byCollective["allgather"] != byCollective["alltoall"] {
			t.Errorf("hits share the lookup phase evenly, got %v", byCollective)
		}
		if sum > wall.Nanoseconds() {
			t.Errorf("pass %d: item latencies sum to %d ns, more than the call's %d ns", pass, sum, wall.Nanoseconds())
		}
	}
}

// flipCtx is a context whose Err turns into context.Canceled after a set
// number of calls: a cancellation that lands between two items of a batch,
// wherever the test wants it. A negative budget never cancels.
type flipCtx struct {
	context.Context
	left atomic.Int64
}

func newFlipCtx(calls int) *flipCtx {
	c := &flipCtx{Context: context.Background()}
	c.left.Store(int64(calls))
	return c
}

func (c *flipCtx) Err() error {
	if c.left.Load() < 0 {
		return nil
	}
	if c.left.Add(-1) < 0 {
		c.left.Store(0)
		return context.Canceled
	}
	return nil
}

// TestSelectBatchCancelledMidBatch pins how far a cancelled context lets a
// batch get: lookup looks at it per item and evaluate per collective, so a
// cancellation fails the items not yet looked up and the misses not yet
// walked — with the context's error, which is no selection failure — and
// leaves standing what the cache had already answered.
func TestSelectBatchCancelledMidBatch(t *testing.T) {
	warm, fresh := synth.Points(41, 2), synth.Points(42, 4)
	reqs := []BatchRequest{
		{Collective: "allgather", Features: warm[0]},
		{Collective: "allgather", Features: fresh[0]},
		{Collective: "alltoall", Features: fresh[1]},
		{Collective: "allgather", Features: warm[1]},
		{Collective: "alltoall", Features: fresh[2]},
		{Collective: "allgather", Features: fresh[3]},
	}
	for _, tc := range []struct {
		name     string
		errCalls int // ctx.Err() answers nil this often, then Canceled
		ok       []int
	}{
		{"during lookup", 4, []int{0, 3}},                         // the warm points among the first four
		{"between collectives", len(reqs) + 1, []int{0, 1, 3, 5}}, // allgather walked, alltoall did not
	} {
		t.Run(tc.name, func(t *testing.T) {
			sinks := &countingSinks{}
			o := obs.NewForTest()
			s := newSynthSelector(t, Config{BatchWorkers: 1, SLO: sinks, Cache: cache.New(cache.Config{}, o.Registry)})
			for _, pt := range warm {
				if _, err := s.Select(context.Background(), "allgather", pt); err != nil {
					t.Fatal(err)
				}
			}
			results := s.SelectBatch(newFlipCtx(tc.errCalls), reqs)
			ok := make(map[int]bool)
			for _, i := range tc.ok {
				ok[i] = true
			}
			for i, r := range results {
				switch {
				case ok[i] && r.Err != nil:
					t.Errorf("item %d failed: %v", i, r.Err)
				case !ok[i] && !errors.Is(r.Err, context.Canceled):
					t.Errorf("item %d: decision %v, error %v, want context.Canceled", i, r.Decision, r.Err)
				}
			}
			if got := s.duration.Count("alltoall", PathCold); got != 0 {
				t.Errorf("%d alltoall forest walks after the cancellation", got)
			}
			if got, want := sinks.ok.Load(), int64(len(warm)+len(tc.ok)); got != want || sinks.failed.Load() != 0 {
				t.Errorf("SLO saw %d good and %d failed selections, want %d and 0", got, sinks.failed.Load(), want)
			}
		})
	}
}

// TestBatchRepeatedKey pins the duplicate-key rule: a key that occurs more
// than once in a batch walks the forest once, its later occurrences come
// back Cached and the cache counts one miss and a hit each — also when the
// cache is too small to still hold the first occurrence's put by the time
// the repeats are resolved.
func TestBatchRepeatedKey(t *testing.T) {
	pts := synth.Points(43, 65)
	reqs := make([]BatchRequest, 0, len(pts)+2)
	for _, pt := range pts {
		reqs = append(reqs, BatchRequest{Collective: "allgather", Features: pt})
	}
	reqs = append(reqs, reqs[0], reqs[0])
	for _, entries := range []int{0, 16} { // the default, and one entry per shard
		o := obs.NewForTest()
		s := newSynthSelector(t, Config{BatchWorkers: 1, Cache: cache.New(cache.Config{MaxEntries: entries}, o.Registry)})
		results := s.SelectBatch(context.Background(), reqs)
		first := results[0].Decision
		for i, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if repeat := i >= len(pts); r.Decision.Cached != repeat {
				t.Errorf("%d cache entries, item %d: cached = %v", entries, i, r.Decision.Cached)
			} else if repeat && (r.Decision.Class != first.Class || &r.Decision.Probs[0] != &first.Probs[0] || r.Decision.RequestID == first.RequestID) {
				t.Errorf("%d cache entries, item %d: %+v does not share the first occurrence's decision %+v", entries, i, r.Decision, first)
			}
		}
		if got := s.duration.Count("allgather", PathCold); got != uint64(len(pts)) {
			t.Errorf("%d cache entries: %d forest walks for %d distinct keys", entries, got, len(pts))
		}
		st, _ := s.CacheStats()
		if st.Hits+st.Misses != uint64(len(reqs)) || st.Misses < uint64(len(pts)) {
			t.Errorf("%d cache entries: cache stats %+v for %d items over %d keys", entries, st, len(reqs), len(pts))
		}
		if entries == 0 && st.Hits != 2 {
			t.Errorf("cache counted %d hits for the two repeats", st.Hits)
		}
	}
}
