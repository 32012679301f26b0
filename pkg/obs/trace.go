package obs

import (
	"context"
	"io"
	"time"
)

// Tracer creates lightweight spans. Each completed span feeds the
// pmlmpi_span_duration_seconds histogram (labeled by span name) and, at
// debug level, a structured log record with the wall time and request ID.
// When a TraceStore is attached and head-based sampling selects a root
// span, the tracer additionally retains the complete span tree — IDs,
// parent links, timings, attributes — for /debug/traces.
type Tracer struct {
	log   *Logger
	hist  *Histogram
	store *TraceStore
	now   func() time.Time
}

// NewTracer returns a tracer recording into reg and logging through log,
// with no trace retention.
func NewTracer(reg *Registry, log *Logger) *Tracer {
	return &Tracer{
		log: log,
		hist: reg.Histogram("pmlmpi_span_duration_seconds",
			"Wall time of internal tracing spans.", LatencyBuckets, "span"),
		now: time.Now,
	}
}

// SetStore attaches the trace store that retains sampled span trees.
func (t *Tracer) SetStore(store *TraceStore) { t.store = store }

// Span is one timed region of work. End it exactly once.
type Span struct {
	tracer   *Tracer
	name     string
	parent   string // parent span name, for the debug log record
	reqID    string
	start    time.Time
	attrs    []kv
	ended    bool
	tb       *traceBuilder // non-nil when this span's trace is sampled
	spanID   string
	parentID string
}

type spanKey struct{}

// Start begins a span named name. The returned context carries the span so
// nested Start calls record their parent. A span with no parent in ctx is a
// trace root: if the tracer's store samples it, the whole tree it anchors is
// retained.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := t.newSpan(name, RequestIDFrom(ctx), parent, parent == nil && t.sampleRoot())
	return context.WithValue(ctx, spanKey{}, s), s
}

func (t *Tracer) sampleRoot() bool { return t.store != nil && t.store.Sample() }

// newSpan builds a span under parent (nil for a trace root, which starts a
// retained trace when sampledRoot says head sampling picked it).
func (t *Tracer) newSpan(name, reqID string, parent *Span, sampledRoot bool) *Span {
	s := &Span{tracer: t, name: name, reqID: reqID, start: t.now()}
	switch {
	case parent == nil:
		if sampledRoot {
			s.tb = newTraceBuilder(t.store)
			s.spanID = s.tb.spanID()
		}
	case parent.tb != nil:
		s.parent = parent.name
		s.tb = parent.tb
		s.spanID = parent.tb.spanID()
		s.parentID = parent.spanID
	default:
		s.parent = parent.name
	}
	return s
}

// Stage is a span name bound once to its pmlmpi_span_duration_seconds
// series, for code that runs the same stage on every request. Unlike
// Tracer.Start it materializes a span only when somebody will read it.
type Stage struct {
	t    *Tracer
	name string
	hist BoundHistogram
}

// Stage binds name to its duration series.
func (t *Tracer) Stage(name string) Stage {
	return Stage{t: t, name: name, hist: t.hist.Bind(name)}
}

// Start begins the stage as a real span — same tree, same sampling tick as
// Tracer.Start — when the span will be kept: its trace is sampled (a sampled
// parent in ctx, or this root wins the head-sampling roll) or the log level
// is debug. Otherwise it allocates nothing and returns ctx unchanged with a
// nil span; the caller times the stage itself and reports it with End,
// so the duration series counts every request either way. reqID stamps the
// span directly, sparing callers a derived request-ID context.
func (st Stage) Start(ctx context.Context, reqID string) (context.Context, *Span) {
	t := st.t
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var sampled bool
	if parent != nil {
		sampled = parent.tb != nil
	} else {
		sampled = t.sampleRoot()
	}
	if !sampled && !t.log.Enabled(LevelDebug) {
		return ctx, nil
	}
	s := t.newSpan(st.name, reqID, parent, sampled)
	return context.WithValue(ctx, spanKey{}, s), s
}

// Child begins the stage as a child span of parent, or stays spanless (nil)
// when the parent stage did: a request is traced as a whole or not at all.
func (st Stage) Child(parent *Span) *Span {
	if parent == nil {
		return nil
	}
	return st.t.newSpan(st.name, parent.reqID, parent, false)
}

// End finishes the stage: sp.End() when it ran as a span (sp non-nil, the
// span reads its own clock), otherwise the caller-measured d goes straight
// into the duration series.
func (st Stage) End(sp *Span, d time.Duration) {
	if sp != nil {
		sp.End()
		return
	}
	st.hist.Observe(d.Seconds())
}

// TraceID returns the ID of the sampled trace this span belongs to, or ""
// when the span is not sampled.
func (s *Span) TraceID() string {
	if s.tb == nil {
		return ""
	}
	return s.tb.traceID
}

// SetAttr attaches a key/value attribute emitted with the span's log record
// and, when sampled, its trace record.
func (s *Span) SetAttr(key string, value any) {
	s.attrs = append(s.attrs, kv{k: key, v: value})
}

// End finishes the span, records its duration into the span histogram, and
// emits a debug log record. When the span belongs to a sampled trace its
// record is appended to the trace, and ending the root seals the trace into
// the store. It returns the measured duration. Calling End more than once
// is a no-op returning 0.
func (s *Span) End() time.Duration {
	if s.ended {
		return 0
	}
	s.ended = true
	d := s.tracer.now().Sub(s.start)
	s.tracer.hist.Observe(d.Seconds(), s.name)
	if s.tb != nil {
		rec := SpanRecord{
			SpanID:     s.spanID,
			ParentID:   s.parentID,
			Name:       s.name,
			Start:      s.start,
			DurationUS: float64(d.Nanoseconds()) / 1e3,
		}
		if len(s.attrs) > 0 {
			rec.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				rec.Attrs[a.k] = a.v
			}
		}
		s.tb.record(rec)
		if s.parentID == "" {
			s.tb.finish(s, d)
		}
	}
	if s.tracer.log.Enabled(LevelDebug) {
		pairs := []any{"span", s.name, "duration_us", float64(d.Microseconds())}
		if s.parent != "" {
			pairs = append(pairs, "parent", s.parent)
		}
		if s.reqID != "" {
			pairs = append(pairs, "request_id", s.reqID)
		}
		for _, a := range s.attrs {
			pairs = append(pairs, a.k, a.v)
		}
		s.tracer.log.Debug("span", pairs...)
	}
	return d
}

// SampleLeaf reports whether a leaf record (RecordLeaf) for this request
// should be retained, without allocating: inside an already-sampled trace
// it always should; at top level it consumes one head-sampling tick. It
// exists so fast paths can skip building the attribute map entirely when
// the answer is no — with sampling disabled the check is one atomic load.
func (t *Tracer) SampleLeaf(ctx context.Context) bool {
	if t.store == nil || !t.store.enabled() {
		return false
	}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok {
		return parent.tb != nil
	}
	return t.store.Sample()
}

// RecordLeaf retains an already-measured operation as a trace span without
// the Start/End machinery — the cheap instrumentation for fast paths like
// the decision-cache hit. Callers must first win a SampleLeaf roll. Inside
// a sampled trace the record is appended as a child span; at top level it
// becomes a complete single-span trace of its own. attrs must not be
// mutated afterwards.
func (t *Tracer) RecordLeaf(ctx context.Context, name string, start time.Time, d time.Duration, attrs map[string]any) {
	if t.store == nil {
		return
	}
	us := float64(d.Nanoseconds()) / 1e3
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok {
		if parent.tb == nil {
			return
		}
		parent.tb.record(SpanRecord{
			SpanID:     parent.tb.spanID(),
			ParentID:   parent.spanID,
			Name:       name,
			Start:      start,
			DurationUS: us,
			Attrs:      attrs,
		})
		return
	}
	t.store.Add(&Trace{
		TraceID:    NewTraceID(),
		RequestID:  RequestIDFrom(ctx),
		Root:       name,
		Start:      start,
		DurationUS: us,
		Spans: []SpanRecord{{
			SpanID:     "s1",
			Name:       name,
			Start:      start,
			DurationUS: us,
			Attrs:      attrs,
		}},
	})
}

// Obs bundles the observability primitives every subsystem needs.
type Obs struct {
	Registry *Registry
	Logger   *Logger
	Tracer   *Tracer
	Traces   *TraceStore
}

// New builds a full observability stack writing logs to w. The trace store
// starts with DefaultTraceCapacity and sampling disabled; call
// Traces.SetSampleRate to retain spans.
func New(w io.Writer, level Level) *Obs {
	reg := NewRegistry()
	log := NewLogger(w, level)
	tracer := NewTracer(reg, log)
	store := NewTraceStore(reg, DefaultTraceCapacity)
	tracer.SetStore(store)
	return &Obs{Registry: reg, Logger: log, Tracer: tracer, Traces: store}
}

// NewForTest builds an Obs stack that discards log output.
func NewForTest() *Obs {
	return New(io.Discard, LevelDebug)
}
