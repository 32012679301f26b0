// Package selector is the public inference API of PML-MPI: given a
// collective name and a named feature map, it returns the predicted best
// algorithm. Every call is instrumented — tracing spans for feature
// extraction, forest evaluation, and the overall decision; counters and a
// latency histogram in the metrics registry; and a ring buffer of recent
// decisions served on /debug/decisions.
package selector

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// DefaultAlgorithms maps each collective's class index to a human-readable
// algorithm name (Open MPI tuned-collective algorithm families). Classes
// beyond the table fall back to "class_<n>".
// Class order must stay aligned with pkg/perfmodel's candidate lists for
// the collectives both sides know (pinned by a perfmodel test): natively
// trained bundles encode perfmodel class indices.
var DefaultAlgorithms = map[string][]string{
	"allgather": {"recursive_doubling", "bruck", "ring", "neighbor_exchange"},
	"alltoall":  {"linear", "pairwise", "modified_bruck", "linear_sync", "two_proc"},
	"broadcast": {"binomial_tree", "pipeline", "scatter_allgather"},
}

// Decision records one completed selection, as surfaced on /debug/decisions.
type Decision struct {
	Time       time.Time          `json:"time"`
	RequestID  string             `json:"request_id,omitempty"`
	Collective string             `json:"collective"`
	Features   map[string]float64 `json:"features"`
	Algorithm  string             `json:"algorithm"`
	Class      int                `json:"class"`
	Probs      []float64          `json:"probs"`
	Votes      []int              `json:"votes"`
	// Margin is the soft-vote confidence: the gap between the top two
	// entries of Probs (forest.Margin).
	Margin float64 `json:"margin"`
	// LowMargin flags a margin below the model-health warn threshold —
	// the forest nearly tied two algorithms. Always false when no
	// observatory is configured.
	LowMargin bool `json:"low_margin,omitempty"`
	// LatencyNS is what the decision cost inside the selector. For a single
	// Select it is measured: extraction through lookup for a cache hit, the
	// forest walk for a miss. For a batch item it is the item's amortised
	// share of the phases it went through (see SelectBatch): an even share of
	// the lookup phase, plus — for a miss — an even share of its
	// collective's forest evaluation, so the items of a batch sum to the
	// wall time of those phases.
	LatencyNS int64 `json:"latency_ns"`
	// Generation is the model generation that produced this decision (0
	// when serving from a static, registry-less source). Because cache keys
	// are generation-prefixed, a cached decision's generation always
	// matches the generation whose forest computed it.
	Generation uint64 `json:"generation,omitempty"`
	// Cached is true when the decision was served from the feature-keyed
	// decision cache instead of a fresh forest evaluation.
	Cached bool `json:"cached,omitempty"`
}

// DefaultCacheQuantum is the feature quantization step used for cache keys
// when Config.CacheQuantum is zero: features within 1e-6 of each other map
// to the same cached decision.
const DefaultCacheQuantum = 1e-6

// Config tunes a Selector.
type Config struct {
	// RingSize is the capacity of the recent-decision buffer (default 128).
	RingSize int
	// Algorithms overrides DefaultAlgorithms when non-nil.
	Algorithms map[string][]string
	// Cache, when non-nil, memoizes decisions keyed by the collective name
	// plus the quantized feature vector. It keeps a compact verdict per key
	// (class, margin, probabilities and votes), never a request: each reply
	// is a fresh envelope carrying its own request's features and ID. The
	// verdict's probabilities and votes are shared with every decision built
	// from it, so returned decisions must not be mutated.
	Cache *cache.Cache
	// CacheQuantum is the quantization step applied to each feature before
	// key derivation (default DefaultCacheQuantum).
	CacheQuantum float64
	// BatchWorkers bounds SelectBatch's worker pool (default GOMAXPROCS):
	// the one place batch parallelism is configured.
	BatchWorkers int
	// Shadow, when non-nil, receives every completed decision so a staged
	// candidate model can be evaluated against live traffic off the
	// response path (see the registry package).
	Shadow ShadowSink
	// SLO, when non-nil, receives every Select outcome (latency + success
	// flag) so rolling SLO windows track the serving path. The sink must be
	// cheap and non-blocking; pkg/slo's Tracker qualifies.
	SLO SLOSink
	// Health, when non-nil, receives every completed decision (margin,
	// features, latency) off the response path for drift scoring, margin
	// telemetry, scorecards, and anomaly capture. A concrete pointer —
	// not an interface — so escape analysis keeps the stack feature
	// buffer on the stack and the warm path allocation-free.
	Health *modelhealth.Observatory
}

// SLOSink receives per-Select outcomes for rolling SLO evaluation.
// Implemented by *slo.Tracker; an interface here keeps the selector free of
// a hard dependency on the slo package.
type SLOSink interface {
	Record(seconds float64, ok bool)
}

// Selector performs instrumented algorithm selection over the active bundle
// of a Source. The bundle can be hot-swapped under it: every Select reads
// the (bundle, generation) pair once with a single atomic load, so each
// decision is internally consistent even while a promotion is in flight.
type Selector struct {
	src        Source
	o          *obs.Obs
	algorithms map[string][]string
	ring       *decisionRing
	cache      *cache.Cache
	quantum    float64
	shadow     ShadowSink
	slo        SLOSink
	health     *modelhealth.Observatory

	batchWorkers int

	selections *obs.Counter
	selErrors  *obs.Counter
	duration   *obs.Histogram
	batches    *obs.Counter
	batchSize  *obs.Histogram

	// Span stages of the selection path, bound to their duration series.
	stBatch, stDecide, stExtract, stEval obs.Stage

	// instr holds the per-decision instruments of the active bundle,
	// collective → class → series, bound once per generation swap.
	instr atomic.Pointer[map[string][]decisionInstr]

	// Per-bundle instruments, re-pointed at each generation swap.
	gLoaded    *obs.Gauge
	gSize      *obs.Gauge
	gTrained   *obs.Gauge
	gTrees     *obs.Gauge
	hPredict   *obs.Histogram
	swapsTotal *obs.Counter
}

// Select-duration path label values: a cold selection walks the forest, a
// cache hit skips it.
const (
	PathCold     = "cold"
	PathCacheHit = "cache_hit"
)

// batchSizeBuckets are the histogram buckets for SelectBatch request sizes.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// New builds a Selector over a fixed, validated bundle — shorthand for
// NewFromSource(Static(b), ...) for tests and single-model deployments.
func New(b *bundle.Bundle, o *obs.Obs, cfg Config) *Selector {
	return NewFromSource(Static(b), o, cfg)
}

// NewFromSource builds a Selector over a swappable bundle source,
// registering its instruments (selection counter, error counter,
// prediction-latency histogram, bundle gauges) in o's registry. It
// instruments the source's current active bundle (if any) and subscribes to
// swaps: each promotion re-points the bundle gauges, instruments the new
// generation's forests, and flushes the decision cache (generation-prefixed
// keys already make old entries unreachable; the flush reclaims them).
func NewFromSource(src Source, o *obs.Obs, cfg Config) *Selector {
	algos := cfg.Algorithms
	if algos == nil {
		algos = DefaultAlgorithms
	}
	quantum := cfg.CacheQuantum
	if quantum <= 0 {
		quantum = DefaultCacheQuantum
	}
	workers := cfg.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := o.Registry
	s := &Selector{
		src:          src,
		o:            o,
		algorithms:   algos,
		ring:         newDecisionRing(cfg.RingSize),
		cache:        cfg.Cache,
		quantum:      quantum,
		batchWorkers: workers,
		shadow:       cfg.Shadow,
		slo:          cfg.SLO,
		health:       cfg.Health,
		selections: reg.Counter("pmlmpi_selections_total",
			"Completed algorithm selections.", "collective", "algorithm"),
		selErrors: reg.Counter("pmlmpi_selection_errors_total",
			"Failed algorithm selections.", "collective", "reason"),
		duration: reg.Histogram("pmlmpi_select_duration_seconds",
			"End-to-end Select latency per chosen algorithm, split by cold vs. cache-hit path.",
			obs.LatencyBuckets, "collective", "algorithm", "path"),
		batches: reg.Counter("pmlmpi_batch_requests_total",
			"SelectBatch calls."),
		batchSize: reg.Histogram("pmlmpi_batch_size_items",
			"Items per SelectBatch call.", batchSizeBuckets),
		gLoaded:  reg.Gauge("pmlmpi_bundle_loaded", "1 when a model bundle is loaded."),
		gSize:    reg.Gauge("pmlmpi_bundle_size_bytes", "Size of the loaded bundle file."),
		gTrained: reg.Gauge("pmlmpi_bundle_trained_systems", "Systems the bundle was trained on."),
		gTrees:   reg.Gauge("pmlmpi_bundle_forest_trees", "Trees per collective forest.", "collective"),
		hPredict: reg.Histogram("pmlmpi_forest_predict_duration_seconds",
			"Wall time of one forest evaluation.", obs.LatencyBuckets, "collective"),
		swapsTotal: reg.Counter("pmlmpi_selector_bundle_swaps_total",
			"Generation swaps observed by the selector."),
		stBatch:   o.Tracer.Stage("selector.batch"),
		stDecide:  o.Tracer.Stage("selector.decide"),
		stExtract: o.Tracer.Stage("feature.extract"),
		stEval:    o.Tracer.Stage("forest.eval"),
	}

	if b, gen := src.Active(); b != nil {
		s.instrumentBundle(b)
		if s.health != nil {
			s.health.OnSwap(gen, b)
		}
	}
	src.Subscribe(func(b *bundle.Bundle, gen uint64) {
		s.swapsTotal.Inc()
		s.instrumentBundle(b)
		if s.cache != nil {
			flushed := s.cache.Flush()
			s.o.Logger.Info("decision cache flushed on bundle swap",
				"generation", gen, "entries_flushed", flushed)
		}
		// Rotate generation-scoped model-health state (drift sketches,
		// scorecard) alongside the cache flush, so the new generation
		// starts with a clean quality record.
		if s.health != nil {
			s.health.OnSwap(gen, b)
		}
	})
	return s
}

// Health returns the model-health observatory, or nil when none is
// configured.
func (s *Selector) Health() *modelhealth.Observatory { return s.health }

// instrumentBundle points the per-bundle gauges at b, wires its forests
// into the predict-latency histogram, and binds the per-decision series of
// every (collective, class) it can produce, so a decision touches neither
// the label join nor a series map. Safe to call while other goroutines
// evaluate b or earlier generations (forest instrumentation is atomic).
func (s *Selector) instrumentBundle(b *bundle.Bundle) {
	s.gLoaded.Set(1)
	s.gSize.Set(float64(b.SizeBytes))
	s.gTrained.Set(float64(len(b.TrainedOn)))
	instr := make(map[string][]decisionInstr, len(b.Collectives))
	for name, c := range b.Collectives {
		s.gTrees.Set(float64(c.NumTrees()), name)
		if cf := c.Compiled(); cf != nil {
			cf.Instrument(s.hPredict.Bind(name).Observe)
		}
		row := make([]decisionInstr, c.NClasses())
		for class := range row {
			row[class] = s.bindDecision(name, class)
		}
		instr[name] = row
	}
	s.instr.Store(&instr)
}

// decisionInstr is everything one decision reports into, resolved for a
// (collective, class) pair.
type decisionInstr struct {
	algo      string
	sel       obs.BoundCounter
	cold, hit obs.BoundHistogram
}

func (s *Selector) bindDecision(collective string, class int) decisionInstr {
	algo := s.AlgorithmName(collective, class)
	return decisionInstr{
		algo: algo,
		sel:  s.selections.Bind(collective, algo),
		cold: s.duration.Bind(collective, algo, PathCold),
		hit:  s.duration.Bind(collective, algo, PathCacheHit),
	}
}

// instruments returns the bound series for a decision. The table covers the
// active bundle; a decision still in flight on a generation that was just
// swapped out may miss it and binds on the spot.
func (s *Selector) instruments(collective string, class int) *decisionInstr {
	if tbl := s.instr.Load(); tbl != nil {
		if row := (*tbl)[collective]; class >= 0 && class < len(row) {
			return &row[class]
		}
	}
	in := s.bindDecision(collective, class)
	return &in
}

// Bundle returns the currently active model bundle (nil when the source
// has no active generation).
func (s *Selector) Bundle() *bundle.Bundle {
	b, _ := s.src.Active()
	return b
}

// Recent returns up to n recent decisions, newest first (n <= 0 for all).
func (s *Selector) Recent(n int) []Decision { return s.ring.last(n) }

// RecentFiltered returns up to n recent decisions for one collective,
// newest first (n <= 0 for all; empty collective matches everything).
func (s *Selector) RecentFiltered(n int, collective string) []Decision {
	return s.ring.lastFiltered(n, collective)
}

// AlgorithmName maps a class index of a collective to its algorithm name.
func (s *Selector) AlgorithmName(collective string, class int) string {
	if names, ok := s.algorithms[collective]; ok && class >= 0 && class < len(names) {
		return names[class]
	}
	return fmt.Sprintf("class_%d", class)
}

// Select predicts the best algorithm for the collective given the named
// feature map. With a cache configured, a quantized-feature hit is the hot
// path: extraction, one sharded-map lookup, pre-bound instruments, a ring
// append, and — when head sampling picks the request — one cheap
// single-span trace record; no forest walk and no logging. Misses (and all
// calls when no cache is configured) take the cold path: stage durations,
// pre-bound counters, a structured log record, and — when the request is
// sampled or the log level is debug — one span per stage.
func (s *Selector) Select(ctx context.Context, collective string, features map[string]float64) (*Decision, error) {
	return s.run(ctx, collective, features, false)
}

// SelectOwned is Select for callers that hand the feature map over: the
// decision keeps features instead of copying it, so the caller must not
// modify the map afterwards. It suits maps decoded for this one call.
func (s *Selector) SelectOwned(ctx context.Context, collective string, features map[string]float64) (*Decision, error) {
	return s.run(ctx, collective, features, true)
}

// requestID names a call: the ID in ctx, or a fresh one.
func requestID(ctx context.Context) string {
	if id := obs.RequestIDFrom(ctx); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// run is one selection plus SLO feeding; owned lets the decision keep the
// feature map instead of copying it.
func (s *Selector) run(ctx context.Context, collective string, features map[string]float64, owned bool) (*Decision, error) {
	d, err := s.doSelect(ctx, collective, features, owned)
	if s.slo == nil {
		return d, err
	}
	// Feed the SLO windows with the decision's own measured latency (no
	// extra clock reads on the hot path); failures count against the
	// availability budget with no latency contribution.
	if err != nil {
		s.slo.Record(0, false)
	} else {
		s.slo.Record(float64(d.LatencyNS)/1e9, true)
	}
	return d, err
}

// doSelect is the selection path proper.
func (s *Selector) doSelect(ctx context.Context, collective string, features map[string]float64, owned bool) (*Decision, error) {
	b, gen := s.src.Active()
	if b == nil {
		s.selErrors.Inc(collective, "no_active_bundle")
		return nil, fmt.Errorf("no active model bundle (registry has nothing promoted)")
	}
	if s.cache == nil {
		d, _, err := s.selectCold(ctx, b, gen, collective, features, nil, time.Time{}, 0, owned)
		if err != nil {
			return nil, err
		}
		s.offerShadow(collective, features, d)
		return d, nil
	}
	start := time.Now()
	c, ok := b.Collective(collective)
	if !ok {
		s.selErrors.Inc(collective, "unknown_collective")
		return nil, unknownCollective(b, collective)
	}
	// Stack buffer for the feature vector: no allocation on the hit path.
	// No collective reads more than bundle.MaxFeatures features; the heap
	// fallback is for an in-memory bundle that breaks that rule.
	var xbuf [bundle.MaxFeatures]float64
	var x []float64
	if n := len(c.FeatureNames); n <= len(xbuf) {
		x = xbuf[:n]
	} else {
		x = make([]float64, n)
	}
	extractStart := time.Now()
	if err := c.VectorInto(x, features); err != nil {
		s.selErrors.Inc(collective, "missing_feature")
		return nil, err
	}
	extractDur := time.Since(extractStart)
	key := featureKey(gen, collective, x, s.quantum)
	if v, ok := s.cache.Get(key); ok {
		elapsed := time.Since(start)
		d := new(Decision)
		s.completeHit(d, v.(*verdict), c, gen, collective, features, owned, x, requestID(ctx), start, elapsed)
		// The warm path must not be dark: when head sampling picks this
		// request, retain a single-span trace. SampleLeaf is one atomic
		// load when sampling is off, so unsampled hits pay ~nothing.
		if s.o.Tracer.SampleLeaf(ctx) {
			s.o.Tracer.RecordLeaf(ctx, "selector.cache_hit", start, elapsed, map[string]any{
				"collective": collective,
				"algorithm":  d.Algorithm,
				"class":      d.Class,
			})
		}
		s.offerShadow(collective, features, d)
		return d, nil
	}
	// Nothing keeps x past the miss either, so it stays in xbuf.
	d, v, err := s.selectCold(ctx, b, gen, collective, features, x, extractStart, extractDur, owned)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, v)
	s.offerShadow(collective, features, d)
	return d, nil
}

func unknownCollective(b *bundle.Bundle, collective string) error {
	return fmt.Errorf("unknown collective %q (bundle has %v)", collective, b.CollectiveNames())
}

// offerShadow forwards a completed decision to the shadow sink, if one is
// configured. The sink samples and copies internally; when shadowing is
// idle this is a nil check plus one atomic load.
func (s *Selector) offerShadow(collective string, features map[string]float64, d *Decision) {
	if s.shadow != nil {
		s.shadow.Offer(collective, features, d.Algorithm, d.Class, d.LatencyNS)
	}
}

// inlineClasses is how many classes a verdict holds probabilities and
// votes for without a second allocation; every collective the paper and the
// performance model know has fewer.
const inlineClasses = 8

// verdict is what the forest said about one cache key, and all the decision
// cache keeps of it: the class, its margin and low-margin flag, the soft and
// hard votes inline, and the pre-resolved series a hit reports into. It
// holds nothing of the request that first asked — no features, no request
// ID, no time — so every decision, hit or miss, is an envelope built from a
// verdict plus its own request (see fill). A verdict is written once,
// before it is put, and only read after; decisions alias its probabilities
// and votes. The generation is the key's: a verdict is only found under the
// generation whose forest computed it.
type verdict struct {
	in *decisionInstr
	// wide holds the prediction of a forest with more than inlineClasses
	// classes, which the inline arrays cannot.
	wide      *forest.Prediction
	margin    float64
	class     int32
	n         uint8 // classes held inline
	lowMargin bool
	probs     [inlineClasses]float64
	votes     [inlineClasses]int
}

// prediction returns an empty prediction backed by v's inline room, for an
// evaluator that fills predictions in place.
func (v *verdict) prediction() forest.Prediction {
	return forest.Prediction{Probs: v.probs[:0], Votes: v.votes[:0]}
}

// probsVotes returns v's probabilities and votes.
func (v *verdict) probsVotes() ([]float64, []int) {
	if v.wide != nil {
		return v.wide.Probs, v.wide.Votes
	}
	return v.probs[:v.n:v.n], v.votes[:v.n:v.n]
}

// fill makes d the decision v answers for one request: v's outcome, the
// request's collective, features and ID, and its own time and latency. An
// owned feature map is kept, any other copied.
func (v *verdict) fill(d *Decision, gen uint64, collective string, features map[string]float64, owned bool, reqID string, start time.Time, latency time.Duration, cached bool) {
	if !owned {
		features = copyFeatures(features)
	}
	probs, votes := v.probsVotes()
	*d = Decision{
		Time:       start,
		RequestID:  reqID,
		Collective: collective,
		Features:   features,
		Algorithm:  v.in.algo,
		Class:      int(v.class),
		Probs:      probs,
		Votes:      votes,
		Margin:     v.margin,
		LowMargin:  v.lowMargin,
		LatencyNS:  latency.Nanoseconds(),
		Generation: gen,
		Cached:     cached,
	}
}

// completeCold makes v the verdict for pred, fills d from it and reports the
// decision everywhere a cold decision is counted — the bound series, model
// health and the ring. x is the extracted vector, which nothing retains.
func (s *Selector) completeCold(d *Decision, v *verdict, c *bundle.Collective, gen uint64, collective string, features map[string]float64, owned bool, x []float64, pred forest.Prediction, reqID string, start time.Time, latency time.Duration) {
	in := s.instruments(collective, pred.Class)
	in.sel.Inc()
	in.cold.Observe(latency.Seconds())

	v.in = in
	v.class = int32(pred.Class)
	v.margin = forest.Margin(pred.Probs)
	if len(pred.Probs) <= inlineClasses {
		v.n = uint8(len(pred.Probs))
	} else {
		v.wide = &forest.Prediction{Class: pred.Class, Probs: pred.Probs, Votes: pred.Votes}
	}
	if s.health != nil {
		v.lowMargin = v.margin < s.health.MarginWarn()
	}
	v.fill(d, gen, collective, features, owned, reqID, start, latency, false)
	if s.health != nil {
		s.health.RecordDecision(gen, collective, in.algo,
			c.Features, x, v.margin, false, d.LatencyNS)
	}
	s.ring.add(*d)
}

// completeHit fills d from the cached verdict v for this request, and
// reports the hit through v's pre-bound series, model health and the ring.
func (s *Selector) completeHit(d *Decision, v *verdict, c *bundle.Collective, gen uint64, collective string, features map[string]float64, owned bool, x []float64, reqID string, start time.Time, elapsed time.Duration) {
	v.fill(d, gen, collective, features, owned, reqID, start, elapsed, true)
	v.in.sel.Inc()
	v.in.hit.Observe(elapsed.Seconds())
	if s.health != nil {
		s.health.RecordDecision(gen, collective, d.Algorithm,
			c.Features, x, d.Margin, true, d.LatencyNS)
	}
	s.ring.add(*d)
}

// selectCold is the forest-walking selection path, evaluating against the
// (b, gen) snapshot its caller read from the source. Every request feeds the
// stage-duration series; only a request that is traced (see obs.Stage.Start)
// pays for spans and a derived context. A non-nil x is a pre-extracted
// feature vector (cache-miss path): extraction already ran to build the
// cache key, so instead of a live feature.extract span its measured timing
// (extractStart/extractDur) is backfilled into the sampled trace, keeping
// miss span trees as complete as cache-less ones. It returns the decision
// and the verdict the cache keeps.
func (s *Selector) selectCold(ctx context.Context, b *bundle.Bundle, gen uint64, collective string, features map[string]float64, x []float64, extractStart time.Time, extractDur time.Duration, owned bool) (*Decision, *verdict, error) {
	reqID := requestID(ctx)
	ctx, decide := s.stDecide.Start(ctx, reqID)
	if decide != nil {
		decide.SetAttr("collective", collective)
	}
	start := time.Now()

	c, ok := b.Collective(collective)
	if !ok {
		s.stDecide.End(decide, time.Since(start))
		s.selErrors.Inc(collective, "unknown_collective")
		return nil, nil, unknownCollective(b, collective)
	}

	evalStart := start
	if x == nil {
		extract := s.stExtract.Child(decide)
		var err error
		x, err = c.Vector(features)
		evalStart = time.Now()
		s.stExtract.End(extract, evalStart.Sub(start))
		if err != nil {
			s.stDecide.End(decide, evalStart.Sub(start))
			s.selErrors.Inc(collective, "missing_feature")
			return nil, nil, err
		}
	} else if decide != nil && s.o.Tracer.SampleLeaf(ctx) {
		s.o.Tracer.RecordLeaf(ctx, "feature.extract", extractStart, extractDur, nil)
	}

	eval := s.stEval.Child(decide)
	v := new(verdict)
	pred := v.prediction()
	err := errNotCompiled
	if cf := c.Compiled(); cf != nil {
		err = cf.PredictInto(x, &pred)
	}
	end := time.Now()
	s.stEval.End(eval, end.Sub(evalStart))
	elapsed := end.Sub(start)
	if err != nil {
		s.stDecide.End(decide, elapsed)
		s.selErrors.Inc(collective, "forest_error")
		return nil, nil, fmt.Errorf("collective %q: %w", collective, err)
	}
	if decide != nil {
		decide.SetAttr("class", pred.Class)
	}
	s.stDecide.End(decide, elapsed)

	d := new(Decision)
	s.completeCold(d, v, c, gen, collective, features, owned, x, pred, reqID, start, elapsed)

	if s.o.Logger.Enabled(obs.LevelInfo) {
		s.o.Logger.Info("selection",
			"request_id", reqID,
			"collective", collective,
			"algorithm", d.Algorithm,
			"class", pred.Class,
			"latency_us", float64(elapsed.Microseconds()))
	}
	return d, v, nil
}

// errNotCompiled fails a selection on a collective without a compiled
// forest, the one evaluator that serves. Only an in-memory bundle can hold
// one (Parse and ParseBinary reject a forest that does not compile); its
// selections fail as forest errors.
var errNotCompiled = errors.New("forest did not compile")

// CacheStats snapshots the decision cache's counters; ok is false when no
// cache is configured.
func (s *Selector) CacheStats() (st cache.Stats, ok bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.Stats(), true
}

func copyFeatures(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
