package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func newTestTracer(rate float64, capacity int) (*Tracer, *TraceStore) {
	reg := NewRegistry()
	tr := NewTracer(reg, NewLogger(discardWriter{}, LevelError))
	store := NewTraceStore(reg, capacity)
	store.SetSampleRate(rate)
	tr.SetStore(store)
	return tr, store
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestSampledRootRetainsCompleteSpanTree(t *testing.T) {
	tr, store := newTestTracer(1.0, 8)

	ctx, _ := WithRequestID(context.Background(), "req-42")
	ctx, root := tr.Start(ctx, "selector.decide")
	root.SetAttr("collective", "alltoall")

	cctx, extract := tr.Start(ctx, "feature.extract")
	extract.End()
	_ = cctx

	ectx, eval := tr.Start(ctx, "forest.eval")
	_, inner := tr.Start(ectx, "forest.eval.chunk")
	inner.End()
	eval.End()
	root.End()

	if store.Len() != 1 {
		t.Fatalf("store holds %d traces, want 1", store.Len())
	}
	id := root.TraceID()
	if id == "" {
		t.Fatal("sampled root has no trace ID")
	}
	trace, ok := store.Get(id)
	if !ok {
		t.Fatalf("trace %q not fetchable", id)
	}
	if trace.Root != "selector.decide" || trace.RequestID != "req-42" {
		t.Errorf("trace = root %q request %q", trace.Root, trace.RequestID)
	}
	if len(trace.Spans) != 4 {
		t.Fatalf("trace has %d spans, want 4: %+v", len(trace.Spans), trace.Spans)
	}

	// Rebuild parentage: every child's ParentID must resolve to a span in
	// the same trace, and the root is the only span with no parent.
	byID := map[string]SpanRecord{}
	for _, s := range trace.Spans {
		byID[s.SpanID] = s
	}
	parents := map[string]string{} // name -> parent name
	roots := 0
	for _, s := range trace.Spans {
		if s.ParentID == "" {
			roots++
			continue
		}
		p, ok := byID[s.ParentID]
		if !ok {
			t.Fatalf("span %q has dangling parent %q", s.Name, s.ParentID)
		}
		parents[s.Name] = p.Name
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1", roots)
	}
	want := map[string]string{
		"feature.extract":   "selector.decide",
		"forest.eval":       "selector.decide",
		"forest.eval.chunk": "forest.eval",
	}
	for name, parent := range want {
		if parents[name] != parent {
			t.Errorf("span %q parent = %q, want %q", name, parents[name], parent)
		}
	}
	// Root attrs survive into the record.
	if rec := byID[trace.Spans[len(trace.Spans)-1].SpanID]; rec.Name == "selector.decide" {
		if rec.Attrs["collective"] != "alltoall" {
			t.Errorf("root attrs = %v", rec.Attrs)
		}
	}
}

func TestUnsampledRootRetainsNothing(t *testing.T) {
	tr, store := newTestTracer(0, 8) // sampling disabled
	ctx, root := tr.Start(context.Background(), "selector.decide")
	_, child := tr.Start(ctx, "forest.eval")
	child.End()
	root.End()
	if root.TraceID() != "" {
		t.Error("unsampled root has a trace ID")
	}
	if store.Len() != 0 {
		t.Errorf("store holds %d traces, want 0", store.Len())
	}
}

func TestSampleRateOneInN(t *testing.T) {
	tr, store := newTestTracer(0.25, 64) // every 4th root
	for i := 0; i < 40; i++ {
		_, root := tr.Start(context.Background(), "op")
		root.End()
	}
	if got := store.Len(); got != 10 {
		t.Errorf("sampled %d of 40 roots at rate 0.25, want 10", got)
	}
	if store.SampleRate() != 0.25 {
		t.Errorf("SampleRate = %v", store.SampleRate())
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	tr, store := newTestTracer(1.0, 3)
	var ids []string
	for i := 0; i < 5; i++ {
		_, root := tr.Start(context.Background(), fmt.Sprintf("op%d", i))
		ids = append(ids, root.TraceID())
		root.End()
	}
	if store.Len() != 3 {
		t.Fatalf("store holds %d traces, want capacity 3", store.Len())
	}
	for _, old := range ids[:2] {
		if _, ok := store.Get(old); ok {
			t.Errorf("evicted trace %q still fetchable", old)
		}
	}
	list := store.List(0)
	if len(list) != 3 {
		t.Fatalf("List returned %d summaries", len(list))
	}
	// Newest first.
	if list[0].Root != "op4" || list[2].Root != "op2" {
		t.Errorf("List order = %q..%q, want op4..op2", list[0].Root, list[2].Root)
	}
	if got := store.List(1); len(got) != 1 || got[0].Root != "op4" {
		t.Errorf("List(1) = %+v", got)
	}
}

func TestRecordLeafStandalone(t *testing.T) {
	tr, store := newTestTracer(1.0, 8)
	ctx, _ := WithRequestID(context.Background(), "req-leaf")
	if !tr.SampleLeaf(ctx) {
		t.Fatal("SampleLeaf at rate 1.0 must sample")
	}
	start := time.Now()
	tr.RecordLeaf(ctx, "selector.cache_hit", start, 800*time.Nanosecond,
		map[string]any{"collective": "allgather"})

	list := store.List(0)
	if len(list) != 1 || list[0].Root != "selector.cache_hit" || list[0].Spans != 1 {
		t.Fatalf("leaf trace summary = %+v", list)
	}
	trace, _ := store.Get(list[0].TraceID)
	if trace.RequestID != "req-leaf" || trace.Spans[0].Attrs["collective"] != "allgather" {
		t.Errorf("leaf trace = %+v", trace)
	}
	if trace.DurationUS <= 0 {
		t.Error("leaf duration not recorded")
	}
}

func TestRecordLeafJoinsSampledParentTrace(t *testing.T) {
	tr, store := newTestTracer(1.0, 8)
	ctx, root := tr.Start(context.Background(), "selector.batch")
	if !tr.SampleLeaf(ctx) {
		t.Fatal("leaf under a sampled root must sample")
	}
	tr.RecordLeaf(ctx, "selector.cache_hit", time.Now(), time.Microsecond, nil)
	root.End()

	if store.Len() != 1 {
		t.Fatalf("store holds %d traces, want the one batch trace", store.Len())
	}
	trace, _ := store.Get(root.TraceID())
	if len(trace.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(trace.Spans))
	}
	leaf := trace.Spans[0]
	if leaf.Name != "selector.cache_hit" || leaf.ParentID == "" {
		t.Errorf("leaf span = %+v, want child of batch root", leaf)
	}
}

func TestRecordLeafUnderUnsampledParentIsDropped(t *testing.T) {
	tr, store := newTestTracer(0, 8)
	ctx, root := tr.Start(context.Background(), "selector.batch")
	if tr.SampleLeaf(ctx) {
		t.Fatal("SampleLeaf with sampling disabled must not sample")
	}
	tr.RecordLeaf(ctx, "selector.cache_hit", time.Now(), time.Microsecond, nil)
	root.End()
	if store.Len() != 0 {
		t.Errorf("store holds %d traces, want 0", store.Len())
	}
}

func TestTraceTruncationCap(t *testing.T) {
	tr, store := newTestTracer(1.0, 2)
	ctx, root := tr.Start(context.Background(), "big")
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		_, s := tr.Start(ctx, "child")
		s.End()
	}
	root.End()
	trace, ok := store.Get(root.TraceID())
	if !ok {
		t.Fatal("truncated trace not stored")
	}
	if !trace.Truncated {
		t.Error("trace not marked truncated")
	}
	if len(trace.Spans) > MaxSpansPerTrace {
		t.Errorf("trace retained %d spans, cap is %d", len(trace.Spans), MaxSpansPerTrace)
	}
}
