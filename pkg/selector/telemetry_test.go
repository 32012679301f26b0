package selector

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// newLoggedSelector builds a cached selector over a synthetic bundle whose
// info-level log lands in the returned buffer, with trace sampling off —
// the production shape of the cold path.
func newLoggedSelector(t testing.TB, ring int) (*Selector, *obs.Obs, *bytes.Buffer) {
	t.Helper()
	b, err := synth.New(synth.Config{Seed: 61, Trees: 16, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	o := obs.New(&log, obs.LevelInfo)
	s := New(b, o, Config{RingSize: ring, BatchWorkers: 1, Cache: cache.New(cache.Config{}, o.Registry)})
	return s, o, &log
}

// logRecords parses the JSON lines written so far and empties the buffer.
func logRecords(t testing.TB, log *bytes.Buffer) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v: %q", err, line)
		}
		recs = append(recs, rec)
	}
	log.Reset()
	return recs
}

func spanCount(o *obs.Obs, span string) uint64 {
	return o.Registry.Histogram("pmlmpi_span_duration_seconds", "", obs.LatencyBuckets, "span").Count(span)
}

func batchOf(points []map[string]float64) []BatchRequest {
	reqs := make([]BatchRequest, len(points))
	for i, pt := range points {
		reqs[i] = BatchRequest{Collective: []string{"allgather", "alltoall"}[i%2], Features: pt}
	}
	return reqs
}

// TestBatchTelemetryIsAmortisedNotLost is the contract of the batched
// decision log: a 256-item cold batch narrates itself in one record, while
// everything that is state — ring entries, request IDs, counters, stage
// durations — stays exact and per item.
func TestBatchTelemetryIsAmortisedNotLost(t *testing.T) {
	const items = 256
	s, o, log := newLoggedSelector(t, 2*items)
	reqs := batchOf(synth.Points(61, items))
	ctx, batchID := obs.WithRequestID(context.Background(), "batch-req-1")

	for _, r := range s.SelectBatch(ctx, reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	recs := logRecords(t, log)
	if len(recs) != 1 || recs[0]["msg"] != "selection_batch" {
		t.Fatalf("a cold batch must write exactly one selection_batch record, got %d: %v", len(recs), recs)
	}
	rec := recs[0]
	for field, want := range map[string]float64{"items": items, "errors": 0, "cold": items, "cached": 0} {
		if rec[field] != want {
			t.Errorf("selection_batch %s = %v, want %v", field, rec[field], want)
		}
	}
	if rec["request_id"] != batchID {
		t.Errorf("selection_batch request_id = %v, want the caller's %q", rec["request_id"], batchID)
	}
	if d, ok := rec["duration_us"].(float64); !ok || d < 0 {
		t.Errorf("selection_batch duration_us = %v", rec["duration_us"])
	}
	algorithms, _ := rec["algorithms"].(map[string]any)
	var logged, counted float64
	for key, n := range algorithms {
		collective, algorithm, ok := strings.Cut(key, "/")
		if !ok {
			t.Errorf("algorithms key %q is not collective/algorithm", key)
		}
		logged += n.(float64)
		counted += s.selections.Value(collective, algorithm)
	}
	if logged != items {
		t.Errorf("per-algorithm counts sum to %v, want %d", logged, items)
	}
	if counted != items {
		t.Errorf("pmlmpi_selections_total advanced by %v over the logged algorithms, want %d", counted, items)
	}

	ids := make(map[string]bool)
	for _, d := range s.Recent(0) {
		ids[d.RequestID] = true
	}
	if len(ids) != items || ids[batchID] || ids[""] {
		t.Errorf("ring holds %d distinct per-item request IDs (batch ID among them: %v), want %d of the items' own",
			len(ids), ids[batchID], items)
	}
	for span, want := range map[string]uint64{"selector.batch": 1, "selector.decide": items, "forest.eval": items} {
		if got := spanCount(o, span); got != want {
			t.Errorf("pmlmpi_span_duration_seconds_count{span=%q} = %d, want %d", span, got, want)
		}
	}
	if got := pathCount(s, "allgather", PathCold) + pathCount(s, "alltoall", PathCold); got != items {
		t.Errorf("cold select-duration observations = %d, want %d", got, items)
	}
	if o.Traces.Len() != 0 {
		t.Errorf("%d traces retained with sampling off", o.Traces.Len())
	}

	// The same batch again is all cache hits — and one failing item is an
	// error, not a decision.
	reqs = append(reqs, BatchRequest{Collective: "no-such-collective"})
	s.SelectBatch(context.Background(), reqs)
	recs = logRecords(t, log)
	if len(recs) != 1 {
		t.Fatalf("second batch wrote %d records, want 1", len(recs))
	}
	rec = recs[0]
	for field, want := range map[string]float64{"items": items + 1, "errors": 1, "cold": 0, "cached": items} {
		if rec[field] != want {
			t.Errorf("cached batch: selection_batch %s = %v, want %v", field, rec[field], want)
		}
	}
	if id, _ := rec["request_id"].(string); id == "" || id == batchID {
		t.Errorf("a batch without a caller request ID must mint its own, got %q", id)
	}
}

// TestSingleColdSelectStillLogsOneSelectionLine: only batches amortise.
func TestSingleColdSelectStillLogsOneSelectionLine(t *testing.T) {
	s, _, log := newLoggedSelector(t, 8)
	pt := synth.Points(62, 1)[0]
	ctx, reqID := obs.WithRequestID(context.Background(), "single-1")
	d, err := s.Select(ctx, "allgather", pt)
	if err != nil {
		t.Fatal(err)
	}
	recs := logRecords(t, log)
	if len(recs) != 1 || recs[0]["msg"] != "selection" {
		t.Fatalf("a cold single select must write one selection record, got %v", recs)
	}
	rec := recs[0]
	if rec["request_id"] != reqID || rec["collective"] != "allgather" || rec["algorithm"] != d.Algorithm ||
		rec["class"] != float64(d.Class) {
		t.Errorf("selection record = %v, decision = %+v", rec, d)
	}
	if d.RequestID != reqID {
		t.Errorf("decision request ID = %q, want the caller's %q", d.RequestID, reqID)
	}
	if _, err := s.Select(ctx, "allgather", pt); err != nil { // now a hit
		t.Fatal(err)
	}
	if recs := logRecords(t, log); len(recs) != 0 {
		t.Errorf("a cache hit must not log, got %v", recs)
	}
}

// TestSampledBatchKeepsFullSpanTree: a sampled batch narrates itself once —
// the batch span with one lookup, one forest.eval per collective (saying how
// many items it walked) and one finish beneath it, not three spans per item
// — while the per-item stage series count every item as they do unsampled.
func TestSampledBatchKeepsFullSpanTree(t *testing.T) {
	s, o, _ := newLoggedSelector(t, 8)
	o.Traces.SetSampleRate(1)
	const items = 5
	s.SelectBatch(context.Background(), batchOf(synth.Points(63, items)))

	list := o.Traces.List(0)
	if len(list) != 1 || list[0].Root != "selector.batch" {
		t.Fatalf("want one selector.batch trace, got %+v", list)
	}
	tr, _ := o.Traces.Get(list[0].TraceID)
	byID := make(map[string]obs.SpanRecord)
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	children := make(map[string]int) // "parent name → child name" edges
	evalItems := make(map[string]int)
	for _, sp := range tr.Spans {
		if sp.ParentID == "" {
			continue
		}
		children[byID[sp.ParentID].Name+" → "+sp.Name]++
		if sp.Name == "forest.eval" {
			evalItems[sp.Attrs["collective"].(string)] += sp.Attrs["items"].(int)
		}
	}
	want := map[string]int{
		"selector.batch → selector.lookup": 1,
		"selector.batch → forest.eval":     2, // batchOf alternates two collectives
		"selector.batch → selector.finish": 1,
	}
	if !reflect.DeepEqual(children, want) {
		t.Errorf("trace edges = %v, want %v", children, want)
	}
	if want := map[string]int{"allgather": 3, "alltoall": 2}; !reflect.DeepEqual(evalItems, want) {
		t.Errorf("forest.eval items by collective = %v, want %v", evalItems, want)
	}
	for span, want := range map[string]uint64{"selector.batch": 1, "selector.decide": items, "forest.eval": items} {
		if got := spanCount(o, span); got != want {
			t.Errorf("sampled path observed %s %d times, want %d", span, got, want)
		}
	}
}

// TestUnsampledColdSelectAllocatesNoSpans pins the allocation-free part of
// the cold path: with sampling off and the log above debug, a cold Select
// costs the same allocations whether or not a tracer is looking, i.e. no
// *Span, no derived context. Measured against the sampled path, which must
// cost more, so the guard cannot pass by both paths allocating spans.
func TestUnsampledColdSelectAllocatesNoSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	measure := func(rate float64) float64 {
		b, err := synth.New(synth.Config{Seed: 64, Trees: 16, Depth: 5})
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewForTest()
		o.Logger.SetLevel(obs.LevelError)
		o.Traces.SetSampleRate(rate)
		s := New(b, o, Config{}) // no cache: every Select is cold
		ctx, _ := obs.WithRequestID(context.Background(), "alloc-1")
		pt := synth.Points(64, 1)[0]
		return testing.AllocsPerRun(500, func() {
			if _, err := s.Select(ctx, "allgather", pt); err != nil {
				t.Fatal(err)
			}
		})
	}
	unsampled, sampled := measure(0), measure(1)
	t.Logf("cold Select: %.0f allocations unsampled, %.0f sampled", unsampled, sampled)
	// Decision, its feature-map copy, the extracted vector, probs and votes.
	const budget = 9
	if unsampled > budget {
		t.Errorf("unsampled cold Select costs %.0f allocations, budget %d", unsampled, budget)
	}
	if sampled < unsampled+3 {
		t.Errorf("sampled cold Select costs %.0f allocations against %.0f unsampled: the span tree (3 spans and more) is missing", sampled, unsampled)
	}
}
