package selector

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// countingSinks tallies what reaches the SLO and shadow sinks.
type countingSinks struct{ ok, failed, offered atomic.Int64 }

func (c *countingSinks) Record(_ float64, ok bool) {
	if ok {
		c.ok.Add(1)
	} else {
		c.failed.Add(1)
	}
}

func (c *countingSinks) Offer(string, map[string]float64, string, int, int64) { c.offered.Add(1) }

// equivTwin is one of two identically built selectors with everything the
// comparison reads.
type equivTwin struct {
	s     *Selector
	sinks *countingSinks
}

func newEquivTwin(b *bundle.Bundle, eval string, cached bool, workers int) equivTwin {
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	sinks := &countingSinks{}
	cfg := Config{
		RingSize: 4096, BatchWorkers: workers, ForestEval: eval,
		SLO: sinks, Shadow: sinks,
		// A drift window no test fills: what a window holds depends on the
		// order decisions are recorded in, which a batch does not promise.
		Health: modelhealth.New(o.Registry, modelhealth.Config{Window: 1 << 20}),
	}
	if cached {
		cfg.Cache = cache.New(cache.Config{}, o.Registry)
	}
	return equivTwin{s: New(b, o, cfg), sinks: sinks}
}

// equivBatch draws a seeded batch: mostly fresh points over both
// collectives, with repeats of earlier items (the same key twice in one
// batch), points both twins were warmed with (true cache hits), unknown
// collectives and maps with a feature missing mixed in. repeated[i] says
// item i shares its key with another item of the batch.
func equivBatch(rng *rand.Rand, size int, fresh, warm []map[string]float64) (reqs []BatchRequest, repeated []bool) {
	collectives := []string{"allgather", "alltoall"}
	reqs = make([]BatchRequest, size)
	repeated = make([]bool, size)
	for i := range reqs {
		switch roll := rng.Intn(20); {
		case roll < 3 && i > 0:
			j := rng.Intn(i)
			reqs[i] = reqs[j]
			repeated[i], repeated[j] = true, true
		case roll < 6:
			reqs[i] = BatchRequest{Collective: collectives[rng.Intn(2)], Features: warm[rng.Intn(len(warm))]}
			// Two draws of one warm point hit both times: not a repeat that
			// has to wait for a put.
		case roll == 6:
			reqs[i] = BatchRequest{Collective: "no-such-collective", Features: fresh[i]}
		case roll == 7:
			short := map[string]float64{"ppn": fresh[i]["ppn"]}
			reqs[i] = BatchRequest{Collective: collectives[rng.Intn(2)], Features: short}
		default:
			reqs[i] = BatchRequest{Collective: collectives[rng.Intn(2)], Features: fresh[i]}
		}
	}
	return reqs, repeated
}

// TestSelectBatchEqualsSingles is the phased batch's contract: whatever the
// batch's size and mix, whichever evaluator, with or without a cache or a
// worker pool, SelectBatch on one selector leaves the same answers and the
// same books as selecting the items one by one on its twin. (Cancellation is
// the one thing a batch does by phase and not by item; it has its own test,
// TestSelectBatchCancelledMidBatch.)
func TestSelectBatchEqualsSingles(t *testing.T) {
	b, err := synth.New(synth.Config{Seed: 71, Trees: 24, Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	warm := synth.Points(72, 8)
	for _, eval := range []string{EvalCompiled, EvalPointer} {
		for _, cached := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				for _, size := range []int{0, 1, 7, 8, 9, 255, 256, 257} {
					name := fmt.Sprintf("%s/cache=%v/workers=%d/size=%d", eval, cached, workers, size)
					t.Run(name, func(t *testing.T) {
						batch, singles := newEquivTwin(b, eval, cached, workers), newEquivTwin(b, eval, cached, workers)
						for _, tw := range []equivTwin{batch, singles} {
							for _, coll := range []string{"allgather", "alltoall"} {
								for _, pt := range warm {
									if _, err := tw.s.Select(context.Background(), coll, pt); err != nil {
										t.Fatal(err)
									}
								}
							}
						}
						rng := rand.New(rand.NewSource(int64(size)*31 + int64(workers)))
						reqs, repeated := equivBatch(rng, size, synth.Points(73, size), warm)

						ctx := context.Background()
						got := batch.s.SelectBatch(ctx, reqs)
						if len(got) != len(reqs) {
							t.Fatalf("%d results for %d requests", len(got), len(reqs))
						}
						for i, req := range reqs {
							var want BatchResult
							want.Decision, want.Err = singles.s.Select(ctx, req.Collective, req.Features)
							// Across a pool's chunks two items of one key race
							// for the put, as two concurrent Selects would.
							sameItem(t, i, got[i], want, workers == 1 || !repeated[i])
						}
						sameBooks(t, batch, singles, workers == 1)
					})
				}
			}
		}
	}
}

// sameItem compares one batch result with its single Select.
func sameItem(t *testing.T, i int, got, want BatchResult, cachedToo bool) {
	t.Helper()
	if (got.Err != nil) != (want.Err != nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
		t.Fatalf("item %d: batch error %v, single error %v", i, got.Err, want.Err)
	}
	if (got.Decision == nil) != (want.Decision == nil) {
		t.Fatalf("item %d: batch decision %v, single decision %v", i, got.Decision, want.Decision)
	}
	if got.Err != nil {
		return
	}
	g, w := got.Decision, want.Decision
	if g.Collective != w.Collective || g.Class != w.Class || g.Algorithm != w.Algorithm ||
		g.Margin != w.Margin || g.LowMargin != w.LowMargin || g.Generation != w.Generation ||
		!reflect.DeepEqual(g.Probs, w.Probs) || !reflect.DeepEqual(g.Votes, w.Votes) ||
		!reflect.DeepEqual(g.Features, w.Features) {
		t.Errorf("item %d: batch decided %+v, single decided %+v", i, *g, *w)
	}
	if cachedToo && g.Cached != w.Cached {
		t.Errorf("item %d: batch cached=%v, single cached=%v", i, g.Cached, w.Cached)
	}
	if g.RequestID == "" || g.LatencyNS < 0 {
		t.Errorf("item %d: batch decision has request ID %q, latency %d", i, g.RequestID, g.LatencyNS)
	}
}

// sameBooks compares everything the two selectors counted. splitToo is
// false when racing repeats may have turned a hit into a miss: then only
// the hit+miss totals have to agree.
func sameBooks(t *testing.T, batch, singles equivTwin, splitToo bool) {
	t.Helper()
	b, s := batch.s, singles.s
	bs, bok := b.CacheStats()
	ss, sok := s.CacheStats()
	if !splitToo {
		bs.Hits, bs.Misses, ss.Hits, ss.Misses = bs.Hits+bs.Misses, 0, ss.Hits+ss.Misses, 0
	}
	if bs != ss || bok != sok {
		t.Errorf("cache stats: batch %+v, singles %+v", bs, ss)
	}
	if got, want := len(b.Recent(0)), len(s.Recent(0)); got != want {
		t.Errorf("ring holds %d decisions after the batch, %d after the singles", got, want)
	}
	for collective, algorithms := range b.algorithms {
		for _, algorithm := range algorithms {
			if got, want := b.selections.Value(collective, algorithm), s.selections.Value(collective, algorithm); got != want {
				t.Errorf("selections{%s,%s}: batch %v, singles %v", collective, algorithm, got, want)
			}
		}
		cold := func(x *Selector) uint64 { return x.duration.Count(collective, PathCold) }
		hit := func(x *Selector) uint64 { return x.duration.Count(collective, PathCacheHit) }
		if splitToo && (cold(b) != cold(s) || hit(b) != hit(s)) {
			t.Errorf("select durations for %s: batch %d cold + %d hit, singles %d cold + %d hit",
				collective, cold(b), hit(b), cold(s), hit(s))
		}
		if cold(b)+hit(b) != cold(s)+hit(s) {
			t.Errorf("select durations for %s: batch %d, singles %d", collective, cold(b)+hit(b), cold(s)+hit(s))
		}
	}
	for _, series := range [][2]string{
		{"no-such-collective", "unknown_collective"}, {"allgather", "missing_feature"}, {"alltoall", "missing_feature"},
	} {
		if got, want := b.selErrors.Value(series[0], series[1]), s.selErrors.Value(series[0], series[1]); got != want {
			t.Errorf("selection errors{%s,%s}: batch %v, singles %v", series[0], series[1], got, want)
		}
	}
	type tally struct{ ok, failed, offered int64 }
	bt := tally{batch.sinks.ok.Load(), batch.sinks.failed.Load(), batch.sinks.offered.Load()}
	st := tally{singles.sinks.ok.Load(), singles.sinks.failed.Load(), singles.sinks.offered.Load()}
	if bt != st {
		t.Errorf("SLO and shadow sinks: batch %+v, singles %+v", bt, st)
	}
	bc, _ := b.Health().ActiveScorecard()
	sc, _ := s.Health().ActiveScorecard()
	if !splitToo {
		bc.CacheHits, sc.CacheHits, bc.CacheHitRate, sc.CacheHitRate = 0, 0, 0, 0
	}
	// Latencies are measured per item on one side and amortised on the other.
	bc.LatencyP50NS, bc.LatencyP99NS, sc.LatencyP50NS, sc.LatencyP99NS = 0, 0, 0, 0
	if !reflect.DeepEqual(bc, sc) || b.Health().Summary().Decisions != s.Health().Summary().Decisions {
		t.Errorf("model health: batch %+v, singles %+v", bc, sc)
	}
}
