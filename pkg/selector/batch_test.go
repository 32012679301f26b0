package selector

import (
	"context"
	"strings"
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
