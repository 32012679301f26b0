// Package modelhealth is the model-quality observability layer: it watches
// every selection off the hot path (the same feeding pattern as pkg/slo)
// and answers the question pkg/obs cannot — is the *model* still right?
// It tracks feature drift against the training distribution embedded in
// the bundle (bundle.FeatureStats), vote-margin confidence telemetry,
// per-registry-generation scorecards, and an anomaly flight recorder that
// captures full context for the decisions worth auditing.
package modelhealth

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// Sketch is a deterministic histogram sketch over a fixed set of bin edges
// decided at construction. Bin i covers (edges[i-1], edges[i]]; the first
// bin is open below and the last (index len(edges)) open above, so every
// finite value lands somewhere and the layout matches bundle.FeatureDist
// exactly. All state is integer counts updated with atomics: observations
// commute exactly (integer addition), so the final counts — and everything
// derived from them — are identical for any goroutine interleaving of the
// same multiset of observations. No floating-point accumulators anywhere,
// by design. It is not an obs.Histogram because the drift monitor observes
// about two sketches per feature on every decision, and lock-free atomic
// adds are the cheaper store; its estimates are obs.BucketSnapshot's.
type Sketch struct {
	edges  []float64
	counts []atomic.Uint64
	total  atomic.Uint64
}

// NewSketch builds a sketch over the given interior cut points, which must
// be non-empty, finite, and strictly ascending (obs.CheckBounds).
func NewSketch(edges []float64) (*Sketch, error) {
	if err := obs.CheckBounds(edges); err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	return &Sketch{
		edges:  append([]float64(nil), edges...),
		counts: make([]atomic.Uint64, len(edges)+1),
	}, nil
}

// MustSketch is NewSketch for statically known edge sets; it panics on
// invalid edges.
func MustSketch(edges []float64) *Sketch {
	s, err := NewSketch(edges)
	if err != nil {
		panic("modelhealth: " + err.Error())
	}
	return s
}

// Edges returns a copy of the interior cut points.
func (s *Sketch) Edges() []float64 { return append([]float64(nil), s.edges...) }

// bucketOf is the shared binning rule: index of the first edge >= v, i.e.
// v <= edges[i] goes to bin i, anything past the last edge (including NaN,
// which compares false everywhere) to the overflow bin.
func bucketOf(edges []float64, v float64) int {
	return sort.SearchFloat64s(edges, v)
}

// Observe adds one observation. Safe for concurrent use; allocation-free.
func (s *Sketch) Observe(v float64) {
	s.counts[bucketOf(s.edges, v)].Add(1)
	s.total.Add(1)
}

// Total returns the number of observations recorded.
func (s *Sketch) Total() uint64 { return s.total.Load() }

// Counts returns a snapshot of all bin counts. Concurrent observers may
// land between bin loads; callers needing an exact cut must quiesce first.
func (s *Sketch) Counts() []uint64 {
	out := make([]uint64, len(s.counts))
	for i := range s.counts {
		out[i] = s.counts[i].Load()
	}
	return out
}

// CountsInto is Counts without the allocation; dst must have
// len(edges)+1 entries. Returns the total across dst.
func (s *Sketch) CountsInto(dst []uint64) uint64 {
	var t uint64
	for i := range s.counts {
		dst[i] = s.counts[i].Load()
		t += dst[i]
	}
	return t
}

// Reset zeroes every bin. Not linearizable against concurrent Observe
// calls (an in-flight observation may survive or vanish); callers that
// need exact window boundaries serialize externally, as the drift monitor
// does.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.total.Store(0)
}

// quantileCounts is the bin count up to which the quantile readers keep
// their counts copy on the stack.
const quantileCounts = 32

// buckets freezes the bin counts into dst as an obs.BucketSnapshot whose
// bounds are the edges.
func (s *Sketch) buckets(dst []uint64) obs.BucketSnapshot {
	if cap(dst) < len(s.counts) {
		dst = make([]uint64, len(s.counts))
	}
	dst = dst[:len(s.counts)]
	return obs.BucketSnapshot{Bounds: s.edges, Counts: dst, Count: s.CountsInto(dst)}
}

// Quantile returns a point estimate of the q-quantile (q in [0,1]): the
// midpoint of QuantileBracket, 0 on an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	var buf [quantileCounts]uint64
	return s.buckets(buf[:]).BracketMid(q)
}

// QuantileBracket returns the [lo,hi] value range of the bin containing
// the q-quantile (obs.BucketSnapshot.Bracket), or (0,0) on an empty
// sketch. Allocation-free for up to quantileCounts bins.
func (s *Sketch) QuantileBracket(q float64) (float64, float64) {
	var buf [quantileCounts]uint64
	lo, hi, _ := s.buckets(buf[:]).Bracket(q)
	return lo, hi
}

// SketchSnapshot is the JSON form of a sketch, used by the debug endpoints
// and pinned by a golden test.
type SketchSnapshot struct {
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"`
	Total  uint64    `json:"total"`
}

// Snapshot captures the sketch for serialization.
func (s *Sketch) Snapshot() SketchSnapshot {
	counts := s.Counts()
	var t uint64
	for _, c := range counts {
		t += c
	}
	return SketchSnapshot{Edges: s.Edges(), Counts: counts, Total: t}
}
