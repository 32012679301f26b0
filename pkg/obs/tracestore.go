package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the number of sampled traces retained when the
// store is built through New.
const DefaultTraceCapacity = 256

// MaxSpansPerTrace bounds one trace's span tree; spans beyond the cap are
// dropped and the trace is marked truncated, so a runaway fan-out (e.g. a
// 1024-item batch) cannot balloon the store.
const MaxSpansPerTrace = 512

// SpanRecord is one completed span within a sampled trace. ParentID is
// empty for the root span.
type SpanRecord struct {
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationUS float64        `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Trace is one retained span tree. Spans appear in end order (children
// before their parent, since a parent outlives its children); consumers
// rebuild the tree from SpanID/ParentID.
type Trace struct {
	TraceID    string       `json:"trace_id"`
	RequestID  string       `json:"request_id,omitempty"`
	Root       string       `json:"root"`
	Start      time.Time    `json:"start"`
	DurationUS float64      `json:"duration_us"`
	Spans      []SpanRecord `json:"spans"`
	Truncated  bool         `json:"truncated,omitempty"`
}

// TraceSummary is the list-view projection of a retained trace.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	RequestID  string    `json:"request_id,omitempty"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationUS float64   `json:"duration_us"`
	Spans      int       `json:"spans"`
}

// TraceStore retains complete span trees for head-sampled requests in a
// bounded ring. Sampling is 1-in-N: SetSampleRate(r) keeps every round(1/r)th
// root, deterministically via an atomic tick, so the non-sampled fast path
// costs a single atomic add. The zero sample rate (the default) disables
// sampling entirely.
type TraceStore struct {
	every atomic.Uint64 // keep every Nth root; 0 = sampling off
	tick  atomic.Uint64

	mu   sync.Mutex
	buf  []*Trace
	next int
	full bool
	byID map[string]*Trace
	rate float64 // configured rate, for display

	sampled *Counter
	stored  *Gauge
}

// NewTraceStore builds a store retaining up to capacity traces, registering
// its instruments (pmlmpi_traces_sampled_total, pmlmpi_traces_stored) in reg.
func NewTraceStore(reg *Registry, capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{
		buf:  make([]*Trace, capacity),
		byID: make(map[string]*Trace, capacity),
		sampled: reg.Counter("pmlmpi_traces_sampled_total",
			"Root spans chosen by head-based sampling."),
		stored: reg.Gauge("pmlmpi_traces_stored",
			"Sampled traces currently retained in the ring."),
	}
}

// SetSampleRate configures head-based sampling from a fraction in [0,1]:
// rate r keeps every round(1/r)th root span. r <= 0 disables sampling; any
// r >= 1 samples every request.
func (ts *TraceStore) SetSampleRate(rate float64) {
	ts.mu.Lock()
	ts.rate = rate
	ts.mu.Unlock()
	switch {
	case rate <= 0:
		ts.every.Store(0)
	case rate >= 1:
		ts.every.Store(1)
	default:
		ts.every.Store(uint64(1/rate + 0.5))
	}
}

// SampleRate returns the configured sampling fraction.
func (ts *TraceStore) SampleRate() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.rate
}

// enabled reports whether any sampling is configured.
func (ts *TraceStore) enabled() bool { return ts.every.Load() != 0 }

// Sample consumes one sampling tick and reports whether the caller's root
// span should be traced. The non-sampled path costs one atomic add.
func (ts *TraceStore) Sample() bool {
	every := ts.every.Load()
	if every == 0 {
		return false
	}
	if ts.tick.Add(1)%every != 0 {
		return false
	}
	ts.sampled.Inc()
	return true
}

// Add retains a completed trace, evicting the oldest when the ring is full.
// Traces must be immutable once added.
func (ts *TraceStore) Add(tr *Trace) {
	ts.mu.Lock()
	if old := ts.buf[ts.next]; old != nil {
		delete(ts.byID, old.TraceID)
	}
	ts.buf[ts.next] = tr
	ts.byID[tr.TraceID] = tr
	ts.next++
	if ts.next == len(ts.buf) {
		ts.next = 0
		ts.full = true
	}
	n := len(ts.byID)
	ts.mu.Unlock()
	ts.stored.Set(float64(n))
}

// Len returns the number of retained traces.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byID)
}

// Get returns the retained trace with the given ID.
func (ts *TraceStore) Get(traceID string) (*Trace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr, ok := ts.byID[traceID]
	return tr, ok
}

// List returns summaries of up to limit retained traces, newest first
// (limit <= 0 for all).
func (ts *TraceStore) List(limit int) []TraceSummary {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	size := ts.next
	if ts.full {
		size = len(ts.buf)
	}
	if limit <= 0 || limit > size {
		limit = size
	}
	out := make([]TraceSummary, 0, limit)
	for i := 1; i <= limit; i++ {
		idx := ts.next - i
		if idx < 0 {
			idx += len(ts.buf)
		}
		tr := ts.buf[idx]
		if tr == nil {
			break
		}
		out = append(out, TraceSummary{
			TraceID:    tr.TraceID,
			RequestID:  tr.RequestID,
			Root:       tr.Root,
			Start:      tr.Start,
			DurationUS: tr.DurationUS,
			Spans:      len(tr.Spans),
		})
	}
	return out
}

// NewTraceID returns a fresh trace ID, distinct from request IDs.
func NewTraceID() string {
	return "tr-" + NewRequestID()
}

// traceBuilder accumulates the span records of one sampled trace. It is
// shared by every span of the trace, including spans ended from concurrent
// batch workers, hence the mutex.
type traceBuilder struct {
	store   *TraceStore
	traceID string

	mu        sync.Mutex
	spans     []SpanRecord
	truncated bool
	nextSpan  uint64
}

func newTraceBuilder(store *TraceStore) *traceBuilder {
	return &traceBuilder{store: store, traceID: NewTraceID()}
}

// spanID issues the next ID within this trace ("s1", "s2", …).
func (tb *traceBuilder) spanID() string {
	tb.mu.Lock()
	tb.nextSpan++
	n := tb.nextSpan
	tb.mu.Unlock()
	return spanIDString(n)
}

func spanIDString(n uint64) string {
	// Tiny base-10 itoa; avoids strconv on a path that only runs when
	// sampled but keeps IDs human-readable in JSON.
	var buf [21]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return "s" + string(buf[i:])
}

func (tb *traceBuilder) record(rec SpanRecord) {
	tb.mu.Lock()
	if len(tb.spans) >= MaxSpansPerTrace {
		tb.truncated = true
	} else {
		tb.spans = append(tb.spans, rec)
	}
	tb.mu.Unlock()
}

// finish seals the trace once its root span ends and hands it to the store.
func (tb *traceBuilder) finish(root *Span, d time.Duration) {
	tb.mu.Lock()
	tr := &Trace{
		TraceID:    tb.traceID,
		RequestID:  root.reqID,
		Root:       root.name,
		Start:      root.start,
		DurationUS: float64(d.Nanoseconds()) / 1e3,
		Spans:      tb.spans,
		Truncated:  tb.truncated,
	}
	tb.spans = nil
	tb.mu.Unlock()
	tb.store.Add(tr)
}
