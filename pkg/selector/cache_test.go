package selector

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// newCachedSelector builds a selector over a synthetic bundle with the
// decision cache enabled.
func newCachedSelector(t testing.TB, cacheCfg cache.Config) (*Selector, *obs.Obs) {
	t.Helper()
	b, err := synth.New(synth.Config{Seed: 21, Trees: 16, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	return New(b, o, Config{Cache: cache.New(cacheCfg, o.Registry)}), o
}

func TestSelectCacheHitReturnsSameDecision(t *testing.T) {
	s, _ := newCachedSelector(t, cache.Config{})
	ctx := context.Background()
	pt := synth.Points(21, 1)[0]

	cold, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("first selection must be a miss")
	}
	warm, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second selection of the same point must hit the cache")
	}
	if warm.Class != cold.Class || warm.Algorithm != cold.Algorithm {
		t.Errorf("cached decision = class %d %q, want class %d %q",
			warm.Class, warm.Algorithm, cold.Class, cold.Algorithm)
	}
	if warm.RequestID == cold.RequestID {
		t.Error("cached decision must get its own request ID")
	}
	st, ok := s.CacheStats()
	if !ok || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v (ok=%v), want 1 hit / 1 miss", st, ok)
	}

	// A different collective with the same features is a distinct key.
	if d, err := s.Select(ctx, "alltoall", pt); err != nil {
		t.Fatal(err)
	} else if d.Cached {
		t.Error("different collective must not share a cache entry")
	}
}

func TestCacheKeyQuantization(t *testing.T) {
	s, _ := newCachedSelector(t, cache.Config{})
	ctx := context.Background()
	pt := synth.Points(22, 1)[0]
	if _, err := s.Select(ctx, "allgather", pt); err != nil {
		t.Fatal(err)
	}

	// Within a quantum (1e-6): same key, hit.
	near := map[string]float64{}
	for k, v := range pt {
		near[k] = v + 1e-8
	}
	d, err := s.Select(ctx, "allgather", near)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cached {
		t.Error("sub-quantum perturbation should hit the cache")
	}

	// Far beyond a quantum: different key, miss.
	far := map[string]float64{}
	for k, v := range pt {
		far[k] = v + 0.5
	}
	d, err = s.Select(ctx, "allgather", far)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cached {
		t.Error("perturbation beyond the quantum should miss")
	}
}

func TestSelectWithoutCacheHasNoStats(t *testing.T) {
	b, err := synth.New(synth.Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, obs.NewForTest(), Config{})
	if _, err := s.Select(context.Background(), "allgather", synth.Points(23, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CacheStats(); ok {
		t.Error("CacheStats should report ok=false with no cache configured")
	}
}

func TestCachedDecisionsAppearInRing(t *testing.T) {
	s, _ := newCachedSelector(t, cache.Config{})
	ctx := context.Background()
	pt := synth.Points(24, 1)[0]
	s.Select(ctx, "allgather", pt)
	s.Select(ctx, "allgather", pt)
	recent := s.Recent(2)
	if len(recent) != 2 {
		t.Fatalf("ring holds %d decisions, want 2", len(recent))
	}
	if !recent[0].Cached || recent[1].Cached {
		t.Errorf("ring order wrong: newest cached=%v, oldest cached=%v", recent[0].Cached, recent[1].Cached)
	}
}

func TestCacheTTLExpiryForcesReevaluation(t *testing.T) {
	s, _ := newCachedSelector(t, cache.Config{TTL: time.Nanosecond})
	ctx := context.Background()
	pt := synth.Points(25, 1)[0]
	s.Select(ctx, "allgather", pt)
	time.Sleep(time.Millisecond) // let the nanosecond TTL lapse
	d, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cached {
		t.Error("expired entry must be re-evaluated")
	}
	if st, _ := s.CacheStats(); st.Evictions != 1 {
		t.Errorf("stats = %+v, want exactly 1 TTL eviction", st)
	}
}

// TestCacheHitIsNotDarkTelemetry is the warm-path blind-spot regression
// test: a cache hit MUST increment the selection counter, land in the
// decision ring (i.e. appear on /debug/decisions), feed the cache_hit
// latency histogram, show up in analytics, and — when sampled — leave a
// trace record. If any of these regress, the path serving ~all production
// traffic goes invisible again.
func TestCacheHitIsNotDarkTelemetry(t *testing.T) {
	s, o := newCachedSelector(t, cache.Config{})
	o.Traces.SetSampleRate(1.0) // sample everything
	ctx := context.Background()
	pt := synth.Points(31, 1)[0]

	cold, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second selection must be a cache hit")
	}

	// Selection counter counts both paths.
	if got := s.selections.Value("allgather", cold.Algorithm); got != 2 {
		t.Errorf("selections counter = %v after 1 cold + 1 hit, want 2", got)
	}

	// The hit is in the ring, newest first, marked cached.
	recent := s.Recent(0)
	if len(recent) != 2 || !recent[0].Cached {
		t.Errorf("ring = %d decisions, newest cached=%v; want 2 with cached hit first",
			len(recent), len(recent) > 0 && recent[0].Cached)
	}

	// The duration histogram has one observation per path label.
	if got := pathCount(s, "allgather", PathCold); got != 1 {
		t.Errorf("cold duration count = %d, want 1", got)
	}
	if got := pathCount(s, "allgather", PathCacheHit); got != 1 {
		t.Errorf("cache_hit duration count = %d, want 1", got)
	}

	// Analytics aggregated both, attributing the hit.
	rows := s.Analytics()
	if len(rows) != 1 || rows[0].Count != 2 || rows[0].CacheHits != 1 {
		t.Errorf("analytics rows = %+v, want one row with count 2 / hits 1", rows)
	}

	// The hit left a single-span trace; the cold path left a full tree.
	var hitTraces, coldTraces int
	for _, tr := range o.Traces.List(0) {
		switch tr.Root {
		case "selector.cache_hit":
			hitTraces++
		case "selector.decide":
			coldTraces++
		}
	}
	if hitTraces != 1 || coldTraces != 1 {
		t.Errorf("traces: %d cache_hit / %d decide, want 1/1", hitTraces, coldTraces)
	}
}

func TestSampledSelectRetainsSpanTree(t *testing.T) {
	b, err := synth.New(synth.Config{Seed: 33, Trees: 8, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Traces.SetSampleRate(1.0)
	s := New(b, o, Config{})
	if _, err := s.Select(context.Background(), "allgather", synth.Points(33, 1)[0]); err != nil {
		t.Fatal(err)
	}

	list := o.Traces.List(0)
	if len(list) != 1 {
		t.Fatalf("retained %d traces, want 1", len(list))
	}
	tr, ok := o.Traces.Get(list[0].TraceID)
	if !ok || tr.Root != "selector.decide" {
		t.Fatalf("trace = %+v", tr)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"selector.decide", "feature.extract", "forest.eval"} {
		if !names[want] {
			t.Errorf("span tree missing %q: %v", want, names)
		}
	}
}

func TestRecentFiltered(t *testing.T) {
	s, _ := newCachedSelector(t, cache.Config{})
	ctx := context.Background()
	pts := synth.Points(34, 3)
	for _, pt := range pts {
		s.Select(ctx, "allgather", pt)
		s.Select(ctx, "alltoall", pt)
	}
	if got := s.RecentFiltered(0, "allgather"); len(got) != 3 {
		t.Fatalf("allgather filter returned %d, want 3", len(got))
	} else {
		for _, d := range got {
			if d.Collective != "allgather" {
				t.Errorf("filtered result leaked %q", d.Collective)
			}
		}
	}
	if got := s.RecentFiltered(2, "alltoall"); len(got) != 2 {
		t.Errorf("limit 2 returned %d", len(got))
	}
	if got := s.RecentFiltered(0, "broadcast"); len(got) != 0 {
		t.Errorf("unknown collective returned %d decisions", len(got))
	}
}

func TestCacheMissTraceKeepsCompleteSpanTree(t *testing.T) {
	// The miss path extracts features before the cache lookup, outside any
	// span; the measured timing must still be backfilled into the sampled
	// trace so cache-enabled cold traces match cache-less ones.
	s, o := newCachedSelector(t, cache.Config{})
	o.Traces.SetSampleRate(1.0)
	if _, err := s.Select(context.Background(), "allgather", synth.Points(35, 1)[0]); err != nil {
		t.Fatal(err)
	}
	list := o.Traces.List(0)
	if len(list) != 1 {
		t.Fatalf("retained %d traces, want 1", len(list))
	}
	tr, _ := o.Traces.Get(list[0].TraceID)
	byName := map[string]obs.SpanRecord{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["selector.decide"]
	if !ok {
		t.Fatalf("no selector.decide root in %+v", tr.Spans)
	}
	for _, want := range []string{"feature.extract", "forest.eval"} {
		sp, ok := byName[want]
		if !ok {
			t.Fatalf("span tree missing %q: %+v", want, tr.Spans)
		}
		if sp.ParentID != root.SpanID {
			t.Errorf("%s parent = %q, want root %q", want, sp.ParentID, root.SpanID)
		}
	}
	if byName["feature.extract"].Start.After(byName["forest.eval"].Start) {
		t.Error("feature.extract should start before forest.eval")
	}
}

// TestWideVerdictsRoundTrip covers forests with more classes than a verdict
// holds inline: cold, hit and batch decisions must all carry the forest's
// full probabilities and votes.
func TestWideVerdictsRoundTrip(t *testing.T) {
	b, err := synth.New(synth.Config{Seed: 26, Trees: 8, Depth: 5, Classes: inlineClasses + 4})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelError)
	s := New(b, o, Config{Cache: cache.New(cache.Config{}, o.Registry)})
	ctx := context.Background()
	pt := synth.Points(26, 1)[0]
	c, _ := b.Collective("allgather")
	x, err := c.Vector(pt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Forest.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	res := s.SelectBatch(ctx, []BatchRequest{{Collective: "allgather", Features: pt}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	for _, d := range []*Decision{cold, hit, res[0].Decision} {
		if d.Class != want.Class || !reflect.DeepEqual(d.Probs, want.Probs) || !reflect.DeepEqual(d.Votes, want.Votes) {
			t.Errorf("cached %v: class %d probs %v votes %v; forest says %d %v %v",
				d.Cached, d.Class, d.Probs, d.Votes, want.Class, want.Probs, want.Votes)
		}
	}
	if !hit.Cached || !res[0].Decision.Cached {
		t.Error("the second and third selections should hit the cache")
	}
}
