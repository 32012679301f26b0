// Package obs is the observability core for PML-MPI: a dependency-free
// metrics registry with Prometheus text exposition, the one estimator that
// turns bucket counts into quantiles and fractions (BucketSnapshot),
// structured JSON logging, lightweight tracing spans, and the HTTP request
// edge every tier serves through (Mux, Serve). Every subsystem
// (bundle loading, forest inference, selection) reports through this
// package so that the admin surface can expose a single consistent view.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the fixed histogram buckets (in seconds) used for all
// latency instruments. They span 1µs..1s, which covers both sub-microsecond
// tree walks and pathological cold-start loads.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// ExponentialBuckets returns count bucket upper bounds starting at start and
// multiplying by factor for each subsequent bound (start, start*factor,
// start*factor², …). It panics on a non-positive start, a factor <= 1, or a
// non-positive count, since those can never produce a valid ascending bucket
// layout.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 {
		panic(fmt.Sprintf("obs: ExponentialBuckets start must be positive, got %v", start))
	}
	if factor <= 1 {
		panic(fmt.Sprintf("obs: ExponentialBuckets factor must be > 1, got %v", factor))
	}
	if count < 1 {
		panic(fmt.Sprintf("obs: ExponentialBuckets count must be positive, got %d", count))
	}
	out := make([]float64, count)
	ub := start
	for i := range out {
		out[i] = ub
		ub *= factor
	}
	return out
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds all metric families. The zero value is not usable; create
// one with NewRegistry. Registration is idempotent: asking for an existing
// family with an identical shape returns the existing instrument.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	labelValues []string
	value       float64    // counters and gauges, guarded by family.mu
	hist        *histState // histograms only; has its own striped locks
}

// histStripeCount is the number of independent lock stripes per histogram
// series. Concurrent observers are spread round-robin across stripes so a
// hot series never serializes on one mutex; the exposition path merges the
// stripes under their individual locks. Must be a power of two.
const histStripeCount = 8

// histState is the lock-striped backing store of one histogram series.
type histState struct {
	next    atomic.Uint32
	stripes [histStripeCount]histStripe
}

// histStripe fills 64 bytes, a cache line's worth, so adjacent stripes
// don't false-share under concurrent observers.
type histStripe struct {
	mu       sync.Mutex
	sum      float64
	min, max float64
	count    uint64
	counts   []uint64 // per-bucket, non-cumulative; last slot is +Inf
}

func newHistState(nBuckets int) *histState {
	st := &histState{}
	for i := range st.stripes {
		st.stripes[i].counts = make([]uint64, nBuckets+1) // +1 for +Inf
		st.stripes[i].min = math.Inf(1)
		st.stripes[i].max = math.Inf(-1)
	}
	return st
}

// observe records v into one stripe. The bucket index is resolved outside
// the lock; only the chosen stripe is held, and only for a few field writes.
func (st *histState) observe(buckets []float64, v float64) {
	idx := sort.SearchFloat64s(buckets, v) // first bound >= v, i.e. v <= bound
	s := &st.stripes[st.next.Add(1)&(histStripeCount-1)]
	s.mu.Lock()
	s.counts[idx]++
	s.sum += v
	s.count++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.mu.Unlock()
}

// snapshot merges all stripes into one view. Stripes are locked one at a
// time, so the merged view is not a single atomic cut — fine for
// monitoring, where per-scrape skew of a few in-flight observations is
// expected.
func (st *histState) snapshot(bounds []float64) BucketSnapshot {
	b := BucketSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1), Min: math.Inf(1), Max: math.Inf(-1)}
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.Lock()
		for j, c := range s.counts {
			b.Counts[j] += c
		}
		b.Sum += s.sum
		b.Count += s.count
		b.Min = math.Min(b.Min, s.min)
		b.Max = math.Max(b.Max, s.max)
		s.mu.Unlock()
	}
	b.HasMinMax = b.Count > 0
	return b
}

func (r *Registry) register(name, help, typ string, buckets []float64, labelNames []string) *family {
	if typ == typeHistogram {
		if err := CheckBounds(buckets); err != nil {
			panic(fmt.Sprintf("obs: metric %q has invalid buckets %v: %v", name, buckets, err))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different shape", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// FamilyNames returns the sorted names of every registered metric family.
func (r *Registry) FamilyNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.typ == typeHistogram {
			s.hist = newHistState(len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing metric, optionally labeled.
type Counter struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *Counter {
	return &Counter{f: r.register(name, help, typeCounter, nil, labelNames)}
}

// Inc increments the counter series identified by labelValues by 1.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Add increments the counter series by delta. Negative deltas panic.
func (c *Counter) Add(delta float64, labelValues ...string) {
	if delta < 0 {
		panic("obs: counter decrease")
	}
	s := c.f.get(labelValues)
	c.f.mu.Lock()
	s.value += delta
	c.f.mu.Unlock()
}

// Value returns the current value of one series (mainly for tests).
func (c *Counter) Value(labelValues ...string) float64 {
	s := c.f.get(labelValues)
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return s.value
}

// BoundCounter is a counter pinned to one label combination. Binding once
// and incrementing the bound handle skips the per-call label join and
// series map lookup — for hot paths that hit the same series repeatedly.
type BoundCounter struct {
	f *family
	s *series
}

// Bind resolves (creating if needed) the series for labelValues.
func (c *Counter) Bind(labelValues ...string) BoundCounter {
	return BoundCounter{f: c.f, s: c.f.get(labelValues)}
}

// Inc increments the bound series by 1.
func (b BoundCounter) Inc() {
	b.f.mu.Lock()
	b.s.value++
	b.f.mu.Unlock()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *Gauge {
	return &Gauge{f: r.register(name, help, typeGauge, nil, labelNames)}
}

// Set sets the gauge series to v.
func (g *Gauge) Set(v float64, labelValues ...string) {
	s := g.f.get(labelValues)
	g.f.mu.Lock()
	s.value = v
	g.f.mu.Unlock()
}

// Add adds delta to the gauge series.
func (g *Gauge) Add(delta float64, labelValues ...string) {
	s := g.f.get(labelValues)
	g.f.mu.Lock()
	s.value += delta
	g.f.mu.Unlock()
}

// Value returns the current value of one series (mainly for tests).
func (g *Gauge) Value(labelValues ...string) float64 {
	s := g.f.get(labelValues)
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return s.value
}

// Histogram is a fixed-bucket distribution metric.
type Histogram struct{ f *family }

// Histogram registers (or fetches) a histogram family with the given
// bucket upper bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	return &Histogram{f: r.register(name, help, typeHistogram, buckets, labelNames)}
}

// Observe records one observation into the series identified by labelValues.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	h.f.get(labelValues).hist.observe(h.f.buckets, v)
}

// BoundHistogram is a histogram pinned to one label combination; see
// BoundCounter for the rationale.
type BoundHistogram struct {
	f *family
	s *series
}

// Bind resolves (creating if needed) the series for labelValues.
func (h *Histogram) Bind(labelValues ...string) BoundHistogram {
	return BoundHistogram{f: h.f, s: h.f.get(labelValues)}
}

// Observe records one observation into the bound series.
func (b BoundHistogram) Observe(v float64) {
	b.s.hist.observe(b.f.buckets, v)
}

// Count returns the total observation count of one series (mainly for tests).
func (h *Histogram) Count(labelValues ...string) uint64 {
	return h.Snapshot(labelValues...).Count
}

// Each calls fn with the label values (read-only) and a snapshot of every
// series of the family, including bound series nothing has observed yet,
// in no particular order.
func (h *Histogram) Each(fn func(labelValues []string, b BucketSnapshot)) {
	h.f.mu.Lock()
	all := make([]*series, 0, len(h.f.series))
	for _, s := range h.f.series {
		all = append(all, s)
	}
	h.f.mu.Unlock()
	for _, s := range all {
		fn(s.labelValues, s.hist.snapshot(h.f.buckets))
	}
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format (version 0.0.4), with families and series sorted for
// deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		s := f.series[k]
		switch f.typ {
		case typeCounter, typeGauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labelNames, s.labelValues, "", ""), formatFloat(s.value))
		case typeHistogram:
			b := s.hist.snapshot(f.buckets)
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += b.Counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, s.labelValues, "le", formatFloat(ub)), cum)
			}
			cum += b.Counts[len(f.buckets)]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.labelNames, s.labelValues, "le", "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelNames, s.labelValues, "", ""), formatFloat(b.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelNames, s.labelValues, "", ""), b.Count)
		}
	}
	f.mu.Unlock()
}

func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, n := range names {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
