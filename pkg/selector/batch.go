package selector

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

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

// SelectBatch evaluates every request, fanning the items out across a
// bounded worker pool (Config.BatchWorkers, default GOMAXPROCS). Results
// are positional: results[i] answers reqs[i]. Item failures are reported
// per item, never abort the batch; a cancelled context fails the items not
// yet started.
//
// Telemetry is per item where it is state — each decision gets its own
// request ID, ring entry, counters, SLO, model-health and shadow sample —
// and per call where it is narration: one "selection_batch" log record
// summarizes the batch instead of one "selection" line per cold item.
func (s *Selector) SelectBatch(ctx context.Context, reqs []BatchRequest) []BatchResult {
	return s.selectBatch(ctx, reqs, false)
}

// SelectBatchOwned is SelectBatch for callers that hand the feature maps
// over (see SelectOwned): decisions keep them instead of copying.
func (s *Selector) SelectBatchOwned(ctx context.Context, reqs []BatchRequest) []BatchResult {
	return s.selectBatch(ctx, reqs, true)
}

func (s *Selector) selectBatch(ctx context.Context, reqs []BatchRequest, owned bool) []BatchResult {
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	batchID := selectCall{}.requestID(ctx)
	start := time.Now()
	ctx, span := s.stBatch.Start(ctx, batchID)
	if span != nil {
		span.SetAttr("items", len(reqs))
	}
	s.batches.Inc()
	s.batchSize.Observe(float64(len(reqs)))

	workers := s.batchWorkers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i, r := range reqs {
			results[i] = s.selectItem(ctx, r, owned)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					results[i] = s.selectItem(ctx, reqs[i], owned)
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

func (s *Selector) selectItem(ctx context.Context, r BatchRequest, owned bool) BatchResult {
	if err := ctx.Err(); err != nil {
		return BatchResult{Err: err}
	}
	// Each item gets its own request ID so decisions in the ring stay
	// individually addressable; the batch span and log record tie them
	// together.
	d, err := s.run(ctx, r.Collective, r.Features,
		selectCall{reqID: obs.NewRequestID(), owned: owned, batched: true})
	return BatchResult{Decision: d, Err: err}
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
