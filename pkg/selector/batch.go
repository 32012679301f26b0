package selector

import (
	"context"
	"fmt"
	"sync"
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
//     and asks the decision cache; a miss reserves its key there at once;
//   - evaluate walks the forest for the misses, grouped by collective — one
//     compiled.PredictBatch per collective, eight vectors in lockstep;
//   - finish builds the decisions and reports each one: counters, latency
//     series, model health, the ring, the shadow and SLO sinks.
//
// Results are positional: results[i] answers reqs[i]. Item failures are
// reported per item and never abort the batch; a cancelled context fails
// the items whose lookup had not started.
//
// The decision cache sees exactly the gets and puts, in exactly the order,
// that selecting the items one by one would give it: a miss puts the entry
// its decision will live in straight away, still pending (see entry), and
// finish completes it. So a key that occurs twice in one batch comes back
// Cached the second time, with one miss and one hit counted; and what a
// full cache evicts, and when, does not depend on how requests were
// batched.
//
// With Config.BatchWorkers > 1 the batch is cut into contiguous chunks and
// each chunk runs the three phases on its own goroutine.
//
// Telemetry is per item where it is state — each decision gets its own
// request ID, ring entry, counters, SLO, model-health and shadow sample —
// and per call where it is narration: one "selection_batch" log record
// instead of one "selection" line per cold item, and a sampled trace of one
// batch span with a lookup, a forest.eval per collective and a finish
// beneath it. The clock is read per phase, not per item: an item's
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

// minBatchChunk is the fewest items worth a goroutine of their own: below
// two lane groups of the batch forest kernel, a chunk spends more on
// scheduling than it gains from running beside its neighbours.
const minBatchChunk = 16

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
	if most := (len(reqs) + minBatchChunk - 1) / minBatchChunk; workers > most {
		workers = most
	}
	if workers <= 1 {
		phases(0, len(reqs))
	} else {
		chunk := (len(reqs) + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < len(reqs); lo += chunk {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				phases(lo, hi)
			}(lo, min(lo+chunk, len(reqs)))
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	s.stBatch.End(span, elapsed)
	s.logBatch(batchID, results, elapsed)
	return results
}

// batchRun is the three phases over one chunk of a batch: the whole batch,
// or one worker's contiguous share of it.
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

	start       time.Time     // of the lookup phase; every decision's Time
	lookupShare time.Duration // one item's share of the lookup phase
	hits        int           // items answered by a cached decision, complete or pending
	misses      []int32       // items that walk the forest, grouped by collective
	groups      []evalGroup
	preds       []forest.Prediction // the misses' predictions, parallel to misses
}

// batchItem is one request's state between the phases.
type batchItem struct {
	c     *bundle.Collective // nil: the bundle has no such collective
	x     []float64          // the extracted vector, cut from the run's slab
	e     *entry             // a hit's cached decision, or the one a miss reserved
	state itemState
}

type itemState uint8

const (
	itemFailed itemState = iota // results[i].Err says why
	itemHit                     // the cache holds its decision, complete or still pending
	itemMiss                    // walks the forest in evaluate
)

// evalGroup is the misses of one collective: misses[lo:hi], evaluated by
// one PredictBatch.
type evalGroup struct {
	c      *bundle.Collective
	lo, hi int
	share  time.Duration // one item's share of the group's evaluation
	err    error
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

// lookup resolves every item as far as the cache can: failed, hit or miss.
// Vectors are cut from one slab; every miss gets the entry its decision
// will live in, and with a cache puts it at once, pending.
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
		if v, ok := s.cache.Get(key); ok {
			it.state, it.e = itemHit, v.(*entry)
			r.hits++
			continue
		}
		it.state, it.e = itemMiss, new(entry)
		s.cache.Put(key, it.e)
	}
}

// evaluate walks the forest for every miss, one PredictBatch per
// collective, predicting straight into the entries the decisions will live
// in. It reads the clock once per collective — from is when lookup ended —
// and returns when the last group finished.
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
				r.misses = append(r.misses, int32(i))
				r.preds = append(r.preds, it.e.prediction())
				xs = append(xs, it.x)
			}
		}
		g.hi = len(r.misses)
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
// the misses group by group, completing their entries, then the hits in
// item order — by then a hit on an entry this batch reserved finds it
// complete. Hit envelopes come from one slab; they die with the caller's
// results, unlike the misses' entries, which the cache keeps one by one.
func (r *batchRun) finish() {
	for _, g := range r.groups {
		for j := g.lo; j < g.hi; j++ {
			i := int(r.misses[j])
			if g.err != nil {
				r.fail(i, "forest_error", fmt.Errorf("collective %q: %w", r.reqs[i].Collective, g.err))
				continue
			}
			r.finishMiss(i, r.preds[j], g.share)
		}
	}
	envelopes := make([]Decision, r.hits)
	for i := range r.items {
		it := &r.items[i]
		if it.state != itemHit {
			continue
		}
		if it.e.ready.Load() {
			r.finishHit(i, &envelopes[0])
			envelopes = envelopes[1:]
			continue
		}
		// Whoever reserved the key — a failed item of this batch, or a
		// request still in flight elsewhere — has no decision to share:
		// this item walks the forest itself and takes the key over, as a
		// miss would have.
		it.e = new(entry)
		pred := it.e.prediction()
		from := time.Now()
		if err := r.s.predictInto(it.c, it.x, &pred); err != nil {
			r.fail(i, "forest_error", fmt.Errorf("collective %q: %w", r.reqs[i].Collective, err))
			continue
		}
		r.finishMiss(i, pred, time.Since(from))
		r.s.cache.Put(featureKey(r.gen, r.reqs[i].Collective, it.x, r.s.quantum), it.e)
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
// its decision, visible to cache hits from here on. evalShare is the item's
// share of its forest evaluation.
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
