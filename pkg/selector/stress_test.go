package selector

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestConcurrentSelectStress hammers Select, SelectBatch, ring reads, and
// cache stats from 64 goroutines (run under -race in CI). The cache is
// sized so nothing evicts and every key is warmed up front, which makes
// the hit arithmetic exact: hits == total hammered items, misses ==
// distinct keys, i.e. hits == requests − distinct keys overall.
func TestConcurrentSelectStress(t *testing.T) {
	const (
		goroutines   = 64
		opsPerWorker = 40
		batchSize    = 8
		points       = 24
	)
	b, err := synth.New(synth.Config{Seed: 41, Trees: 16, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	s := New(b, o, Config{
		RingSize:     64,
		Cache:        cache.New(cache.Config{MaxEntries: 4096}, o.Registry),
		BatchWorkers: 4,
	})
	ctx := context.Background()

	pts := synth.Points(41, points)
	collectives := b.CollectiveNames()
	distinctKeys := len(pts) * len(collectives)

	// Warm phase: touch every (collective, point) once, sequentially, so
	// every miss happens exactly once and the hammer phase is all hits.
	for _, c := range collectives {
		for _, pt := range pts {
			if _, err := s.Select(ctx, c, pt); err != nil {
				t.Fatalf("warm %s: %v", c, err)
			}
		}
	}
	if st, _ := s.CacheStats(); st.Misses != uint64(distinctKeys) || st.Hits != 0 {
		t.Fatalf("after warm-up: stats = %+v, want %d misses and 0 hits", st, distinctKeys)
	}

	var hammered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				c := collectives[(g+i)%len(collectives)]
				switch i % 3 {
				case 0: // single select
					if _, err := s.Select(ctx, c, pts[(g*7+i)%len(pts)]); err != nil {
						t.Errorf("Select: %v", err)
						return
					}
					hammered.Add(1)
				case 1: // batch select
					reqs := make([]BatchRequest, batchSize)
					for j := range reqs {
						reqs[j] = BatchRequest{Collective: c, Features: pts[(g+i+j)%len(pts)]}
					}
					for _, r := range s.SelectBatch(ctx, reqs) {
						if r.Err != nil {
							t.Errorf("SelectBatch: %v", r.Err)
							return
						}
						if !r.Decision.Cached {
							t.Error("hammer-phase batch item missed the warmed cache")
							return
						}
					}
					hammered.Add(batchSize)
				case 2: // concurrent readers of the debug surfaces
					s.Recent(8)
					s.CacheStats()
				}
			}
		}(g)
	}
	wg.Wait()

	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("cache disappeared")
	}
	if st.Hits != hammered.Load() {
		t.Errorf("cache hits = %d, want exactly the %d hammered requests", st.Hits, hammered.Load())
	}
	if st.Misses != uint64(distinctKeys) {
		t.Errorf("cache misses = %d, want the %d distinct keys", st.Misses, distinctKeys)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (cache sized above the key space)", st.Evictions)
	}
	// The identity the issue asks for: hits == requests − distinct keys.
	totalRequests := hammered.Load() + uint64(distinctKeys)
	if st.Hits != totalRequests-uint64(distinctKeys) {
		t.Errorf("hits %d != requests %d − distinct keys %d", st.Hits, totalRequests, distinctKeys)
	}
	// And the obs counters must agree with the atomic stats.
	reg := o.Registry
	if got := reg.Counter("pmlmpi_cache_hits_total", "").Value(); got != float64(st.Hits) {
		t.Errorf("metrics hit counter = %v, stats say %d", got, st.Hits)
	}
	if got := reg.Counter("pmlmpi_cache_misses_total", "").Value(); got != float64(st.Misses) {
		t.Errorf("metrics miss counter = %v, stats say %d", got, st.Misses)
	}
}

// TestEvictingBatchesKeepRepliesIntact runs SelectBatch from 4 goroutines on
// a 16-entry cache over 128 keys, so nearly every put evicts and reuses a
// slot while other goroutines still encode replies that alias the verdicts
// they were built from (run under -race in CI). Every reply, in memory and
// as AppendBatchReply encodes it, must carry the pointer forest's
// probabilities and votes for its own item.
func TestEvictingBatchesKeepRepliesIntact(t *testing.T) {
	const goroutines, rounds, batchSize, points = 4, 40, 24, 64
	b, err := synth.New(synth.Config{Seed: 42, Trees: 16, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	s := New(b, o, Config{Cache: cache.New(cache.Config{MaxEntries: 16}, o.Registry), BatchWorkers: 1})

	pts := synth.Points(42, points)
	collectives := b.CollectiveNames()
	type item struct {
		collective string
		point      int
	}
	want := map[item]forest.Prediction{}
	for _, c := range collectives {
		coll, _ := b.Collective(c)
		for i, pt := range pts {
			x, err := coll.Vector(pt)
			if err != nil {
				t.Fatal(err)
			}
			if want[item{c, i}], err = coll.Forest.Predict(x); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < rounds; round++ {
				items := make([]item, batchSize)
				reqs := make([]BatchRequest, batchSize)
				for j := range reqs {
					items[j] = item{collectives[rng.Intn(len(collectives))], rng.Intn(points)}
					reqs[j] = BatchRequest{Collective: items[j].collective, Features: pts[items[j].point]}
				}
				results := s.SelectBatch(ctx, reqs)
				out, err := AppendBatchReply(nil, results)
				if err != nil {
					t.Error(err)
					return
				}
				var reply struct {
					Results []struct {
						Decision struct {
							Probs []float64 `json:"probs"`
							Votes []int     `json:"votes"`
						} `json:"decision"`
					} `json:"results"`
				}
				if err := json.Unmarshal(out, &reply); err != nil {
					t.Error(err)
					return
				}
				for j, r := range results {
					w := want[items[j]]
					enc := reply.Results[j].Decision
					if r.Err != nil || !reflect.DeepEqual(r.Decision.Probs, w.Probs) || !reflect.DeepEqual(r.Decision.Votes, w.Votes) ||
						!reflect.DeepEqual(enc.Probs, w.Probs) || !reflect.DeepEqual(enc.Votes, w.Votes) {
						t.Errorf("goroutine %d round %d item %d (%v): err %v, reply probs %v votes %v, encoded %v %v; forest says %v %v",
							g, round, j, items[j], r.Err, r.Decision.Probs, r.Decision.Votes, enc.Probs, enc.Votes, w.Probs, w.Votes)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st, _ := s.CacheStats(); st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("stats %+v: the run should both hit and evict", st)
	}
}
