package selector

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// BatchRequest is one item of a SelectBatch call.
type BatchRequest struct {
	Collective string             `json:"collective"`
	Features   map[string]float64 `json:"features"`
}

// BatchResult pairs each batch item with its decision or error. Exactly
// one of Decision and Err is set.
type BatchResult struct {
	Decision *Decision
	Err      error
}

// SelectBatch evaluates every request as one unit of work, in three phases
// over the whole batch:
//
//   - lookup resolves each item's collective, extracts its feature vector
//     and asks the decision cache;
//   - evaluate walks the forest for the misses, grouped by collective — one
//     compiled.PredictBatch per collective, eight vectors in lockstep;
//   - finish builds the decisions, puts the fresh ones in the cache and
//     reports each one: counters, latency series, model health, the ring,
//     the shadow and SLO sinks.
//
// Results are positional: results[i] answers reqs[i]. Item failures are
// reported per item and never abort the batch. The context is looked at
// once per item in lookup and once per collective in evaluate: cancelling
// it fails the items whose lookup had not started and the misses whose
// forest walk had not, with the context's error.
//
// A key that occurs twice in one batch is evaluated once: the later
// occurrence waits for the first one's put and then asks the cache, so it
// comes back Cached with one miss and one hit counted, as it would from two
// Selects in a row. Otherwise the batch's gets all come before its puts.
//
// With Config.BatchWorkers > 1 a batch larger than batchChunk items is cut
// into contiguous chunks, which the pool's workers pull one at a time; each
// chunk runs the three phases by itself, so two items with the same key in
// different chunks race for the put, as two concurrent Selects would.
//
// Telemetry is per item where it is state — each decision gets its own
// request ID, ring entry, counters, SLO, model-health and shadow sample —
// and per call where it is narration: one "selection_batch" log record
// instead of one "selection" line per cold item, and a sampled trace of one
// batch span with a lookup, a forest.eval per collective and a finish
// beneath it (per chunk, when the pool cut the batch). The clock is read per phase, not per item: an item's
// LatencyNS, and its one observation in each latency and stage series, is
// its even share of the phases it went through (see Decision.LatencyNS),
// so the observations of a batch sum to the phases' wall time.
func (s *Selector) SelectBatch(ctx context.Context, reqs []BatchRequest) []BatchResult {
	return s.selectBatch(ctx, reqs, false)
}

// SelectBatchOwned is SelectBatch for callers that hand the feature maps
// over (see SelectOwned): decisions keep them instead of copying.
func (s *Selector) SelectBatchOwned(ctx context.Context, reqs []BatchRequest) []BatchResult {
	return s.selectBatch(ctx, reqs, true)
}

// batchChunk is how many items a pool worker takes at a time. Workers pull
// chunks instead of owning a fixed share of the batch, so a worker the OS
// deschedules holds up one chunk while the others finish the rest — on a
// busy host a batch cut into fixed halves waits, whole, for its slower half.
// A chunk is still four lane groups of the batch forest kernel, and a batch
// no larger than one chunk stays on the calling goroutine.
const batchChunk = 32

func (s *Selector) selectBatch(ctx context.Context, reqs []BatchRequest, owned bool) []BatchResult {
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	batchID := requestID(ctx)
	start := time.Now()
	ctx, span := s.stBatch.Start(ctx, batchID)
	if span != nil {
		span.SetAttr("items", len(reqs))
	}
	s.batches.Inc()
	s.batchSize.Observe(float64(len(reqs)))

	// Only a sampled batch span keeps the phases' records; asking without
	// one would spend a head-sampling tick.
	traced := span != nil && s.o.Tracer.SampleLeaf(ctx)
	phases := func(lo, hi int) {
		run := batchRun{s: s, ctx: ctx, owned: owned, traced: traced, reqs: reqs[lo:hi], results: results[lo:hi]}
		run.do()
	}
	workers := s.batchWorkers
	if most := (len(reqs) + batchChunk - 1) / batchChunk; workers > most {
		workers = most
	}
	if workers <= 1 {
		phases(0, len(reqs))
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					lo := int(next.Add(batchChunk)) - batchChunk
					if lo >= len(reqs) {
						return
					}
					phases(lo, min(lo+batchChunk, len(reqs)))
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	s.stBatch.End(span, elapsed)
	s.logBatch(batchID, results, elapsed)
	return results
}

// batchRun is the three phases over one chunk of a batch: the whole batch,
// or batchChunk contiguous items of it that a pool worker pulled.
type batchRun struct {
	s       *Selector
	ctx     context.Context
	owned   bool
	traced  bool
	reqs    []BatchRequest
	results []BatchResult

	b     *bundle.Bundle
	gen   uint64
	items []batchItem

	start       time.Time        // of the lookup phase; every decision's Time
	lookupShare time.Duration    // one item's share of the lookup phase
	missed      map[string]int32 // cache key → the first item of the run that missed on it
	hits        int              // items answered by a cached decision, repeats included
	misses      []int32          // items that walk the forest, grouped by collective
	groups      []evalGroup
	preds       []forest.Prediction // the misses' predictions, parallel to misses
}

// batchItem is one request's state between the phases.
type batchItem struct {
	c     *bundle.Collective // nil: the bundle has no such collective
	x     []float64          // the extracted vector, cut from the run's slab
	key   string             // a miss's cache key, for its put
	e     *entry             // a hit's cached decision, or the one a miss is building
	first int32              // a repeat's earlier item with the same key
	group int32              // a miss's evaluation group
	state itemState
}

type itemState uint8

const (
	itemFailed itemState = iota // results[i].Err says why
	itemHit                     // the cache holds its decision
	itemMiss                    // walks the forest in evaluate
	itemRepeat                  // an earlier item of the run missed on the same key
)

// evalGroup is the misses of one collective: misses[lo:hi], evaluated by
// one PredictBatch.
type evalGroup struct {
	c      *bundle.Collective
	lo, hi int
	share  time.Duration // one item's share of the group's evaluation
	err    error         // what stopped the group: the evaluator's error, or the context's
	// cancelled says err is the context's: it was done before the group's
	// turn came, and nothing was walked.
	cancelled bool
}

// do runs the three phases.
func (r *batchRun) do() {
	s, reqs, results := r.s, r.reqs, r.results
	r.b, r.gen = s.src.Active()
	if r.b == nil {
		for i := range reqs {
			if err := r.ctx.Err(); err != nil {
				results[i].Err = err
				continue
			}
			r.fail(i, "no_active_bundle", fmt.Errorf("no active model bundle (registry has nothing promoted)"))
		}
		return
	}
	r.items = make([]batchItem, len(reqs))
	r.start = time.Now()
	r.lookup()
	lookupEnd := time.Now()
	r.lookupShare = lookupEnd.Sub(r.start) / time.Duration(len(reqs))
	if r.traced {
		s.o.Tracer.RecordLeaf(r.ctx, "selector.lookup", r.start, lookupEnd.Sub(r.start), map[string]any{
			"items": len(reqs), "hits": r.hits})
	}
	evalEnd := r.evaluate(lookupEnd)
	r.finish()
	if r.traced {
		s.o.Tracer.RecordLeaf(r.ctx, "selector.finish", evalEnd, time.Since(evalEnd), nil)
	}
}

// fail records item i's failure where a failed Select records it: the
// error counter and the SLO's availability budget.
func (r *batchRun) fail(i int, reason string, err error) {
	r.s.selErrors.Inc(r.reqs[i].Collective, reason)
	r.results[i].Err = err
	if r.s.slo != nil {
		r.s.slo.Record(0, false)
	}
}

// lookup resolves every item as far as the cache can: failed, hit, miss or
// the repeat of an earlier miss. Vectors are cut from one slab.
func (r *batchRun) lookup() {
	s := r.s
	floats := 0
	for i := range r.reqs {
		if c, ok := r.b.Collective(r.reqs[i].Collective); ok {
			r.items[i].c = c
			floats += len(c.FeatureNames)
		}
	}
	slab := make([]float64, floats)
	for i := range r.reqs {
		it, req := &r.items[i], &r.reqs[i]
		if err := r.ctx.Err(); err != nil {
			r.results[i].Err = err
			continue
		}
		if it.c == nil {
			r.fail(i, "unknown_collective", unknownCollective(r.b, req.Collective))
			continue
		}
		n := len(it.c.FeatureNames)
		it.x, slab = slab[:n:n], slab[n:]
		if err := it.c.VectorInto(it.x, req.Features); err != nil {
			r.fail(i, "missing_feature", err)
			continue
		}
		if s.cache == nil {
			it.state, it.e = itemMiss, new(entry)
			continue
		}
		key := featureKey(r.gen, req.Collective, it.x, s.quantum)
		if first, ok := r.missed[key]; ok {
			// Asking the cache now would count a second miss for a decision
			// that is on its way: finish asks once the first one is put.
			it.state, it.first = itemRepeat, first
			r.hits++
			continue
		}
		if v, ok := s.cache.Get(key); ok {
			it.state, it.e = itemHit, v.(*entry)
			r.hits++
			continue
		}
		it.state, it.e, it.key = itemMiss, new(entry), key
		if r.missed == nil {
			r.missed = make(map[string]int32, len(r.reqs)-i)
		}
		r.missed[key] = int32(i)
	}
}

// evaluate walks the forest for every miss, one PredictBatch per
// collective, predicting straight into the entries the decisions will live
// in. It reads the clock and looks at the context once per collective —
// from is when lookup ended — and returns when the last group finished.
func (r *batchRun) evaluate(from time.Time) time.Time {
	s := r.s
	n := 0
	for i := range r.items {
		it := &r.items[i]
		if it.state != itemMiss {
			continue
		}
		n++
		known := false
		for _, g := range r.groups {
			known = known || g.c == it.c
		}
		if !known {
			r.groups = append(r.groups, evalGroup{c: it.c})
		}
	}
	r.misses = make([]int32, 0, n)
	r.preds = make([]forest.Prediction, 0, n)
	xs := make([][]float64, 0, n)
	for gi := range r.groups {
		g := &r.groups[gi]
		g.lo = len(r.misses)
		for i := range r.items {
			if it := &r.items[i]; it.state == itemMiss && it.c == g.c {
				it.group = int32(gi)
				r.misses = append(r.misses, int32(i))
				r.preds = append(r.preds, it.e.prediction())
				xs = append(xs, it.x)
			}
		}
		g.hi = len(r.misses)
		if g.err = r.ctx.Err(); g.err != nil {
			g.cancelled = true
			continue
		}
		g.err = s.predictGroup(g.c, xs[g.lo:g.hi], r.preds[g.lo:g.hi])
		end := time.Now()
		g.share = end.Sub(from) / time.Duration(g.hi-g.lo)
		if r.traced {
			s.o.Tracer.RecordLeaf(r.ctx, "forest.eval", from, end.Sub(from), map[string]any{
				"collective": g.c.Name, "items": g.hi - g.lo})
		}
		from = end
	}
	return from
}

// predictGroup evaluates the vectors of one collective: the batch kernel in
// compiled mode, the reference walk one vector at a time otherwise. An
// error fails the whole group; on forests that passed validation neither
// evaluator returns one.
func (s *Selector) predictGroup(c *bundle.Collective, xs [][]float64, preds []forest.Prediction) error {
	if cf := s.compiledForest(c); cf != nil {
		return cf.PredictBatch(xs, preds)
	}
	for j, x := range xs {
		if err := s.predictInto(c, x, &preds[j]); err != nil {
			return err
		}
	}
	return nil
}

// finish turns the phases' outcomes into decisions and reports each one:
// the misses group by group, putting each fresh decision in the cache, then
// the hits in item order — by then a repeat finds its first occurrence's
// decision there. Hit envelopes come from one slab; they die with the
// caller's results, unlike the misses' entries, which the cache keeps one by
// one.
func (r *batchRun) finish() {
	for gi := range r.groups {
		g := &r.groups[gi]
		for j := g.lo; j < g.hi; j++ {
			if i := int(r.misses[j]); g.err != nil {
				r.failMiss(i, g)
			} else {
				r.finishMiss(i, r.preds[j], g.share)
			}
		}
	}
	envelopes := make([]Decision, r.hits)
	for i := range r.items {
		it := &r.items[i]
		if it.state == itemRepeat {
			r.resolveRepeat(i)
		}
		if it.state == itemHit {
			r.finishHit(i, &envelopes[0])
			envelopes = envelopes[1:]
		}
	}
}

// failMiss fails item i for what stopped its group g: a cancelled context
// as lookup reports one, an evaluator error as a failed Select does.
func (r *batchRun) failMiss(i int, g *evalGroup) {
	r.items[i].state = itemFailed
	if g.cancelled {
		r.results[i].Err = g.err
		return
	}
	r.fail(i, "forest_error", fmt.Errorf("collective %q: %w", r.reqs[i].Collective, g.err))
}

// resolveRepeat settles item i, whose key an earlier item of the run missed
// on, now that that item is finished: it becomes a hit on the decision the
// first occurrence put, or — same key, same forest, same outcome — fails
// the way the first occurrence did.
func (r *batchRun) resolveRepeat(i int) {
	it := &r.items[i]
	first := &r.items[it.first]
	if first.state == itemFailed {
		r.failMiss(i, &r.groups[first.group])
		return
	}
	// Should the cache have dropped the decision again already (a cache
	// smaller than the batch), the batch still holds it.
	it.state, it.e = itemHit, first.e
	if v, ok := r.s.cache.Get(first.key); ok {
		it.e = v.(*entry)
	}
}

// finishHit completes item i from its cached decision, into d.
func (r *batchRun) finishHit(i int, d *Decision) {
	s, it, req := r.s, &r.items[i], &r.reqs[i]
	// Each item gets its own request ID so decisions in the ring stay
	// individually addressable; the batch's log record ties them together.
	s.completeHit(d, it.e, it.c, r.gen, req.Collective, it.x, obs.NewRequestID(), r.start, r.lookupShare)
	r.results[i].Decision = d
	r.sinks(req, d)
}

// finishMiss completes item i from its fresh prediction: its entry becomes
// its decision and goes into the cache. evalShare is the item's share of its
// forest evaluation.
func (r *batchRun) finishMiss(i int, pred forest.Prediction, evalShare time.Duration) {
	s, it, req := r.s, &r.items[i], &r.reqs[i]
	latency := r.lookupShare + evalShare
	s.stDecide.End(nil, latency)
	s.stEval.End(nil, evalShare)
	if s.cache == nil {
		// Without a cache the lookup phase is feature extraction alone, and
		// a cold select reports that stage.
		s.stExtract.End(nil, r.lookupShare)
	}
	features := req.Features
	if !r.owned {
		features = copyFeatures(features)
	}
	s.completeCold(it.e, it.c, r.gen, req.Collective, features, it.x, pred, obs.NewRequestID(), r.start, latency)
	if s.cache != nil {
		s.cache.Put(it.key, it.e)
	}
	r.results[i].Decision = &it.e.d
	r.sinks(req, &it.e.d)
}

// sinks feeds one completed decision to the shadow and SLO sinks.
func (r *batchRun) sinks(req *BatchRequest, d *Decision) {
	r.s.offerShadow(req.Collective, req.Features, d)
	if r.s.slo != nil {
		r.s.slo.Record(float64(d.LatencyNS)/1e9, true)
	}
}

// logBatch writes the batch's one log record: how many items, how they
// split into errors, forest walks and cache hits, and what was chosen.
func (s *Selector) logBatch(batchID string, results []BatchResult, elapsed time.Duration) {
	if !s.o.Logger.Enabled(obs.LevelInfo) {
		return
	}
	type choice struct{ collective, algorithm string }
	var errs, cached int
	counts := make(map[choice]int)
	for _, r := range results {
		switch {
		case r.Err != nil:
			errs++
			continue
		case r.Decision.Cached:
			cached++
		}
		counts[choice{r.Decision.Collective, r.Decision.Algorithm}]++
	}
	algorithms := make(map[string]int, len(counts))
	for c, n := range counts {
		algorithms[c.collective+"/"+c.algorithm] = n
	}
	s.o.Logger.Info("selection_batch",
		"request_id", batchID,
		"items", len(results),
		"errors", errs,
		"cold", len(results)-errs-cached,
		"cached", cached,
		"algorithms", algorithms,
		"duration_us", float64(elapsed.Microseconds()))
}
