package obs

import (
	"fmt"
	"math"
	"sort"
)

// BucketSnapshot is one fixed-bucket distribution frozen at a point in
// time, and the one place in the repository that turns bucket counts into
// numbers: every quantile, bracket and threshold fraction the server
// reports is a method of this type. Histogram series, WindowRing windows,
// the model-health sketches and loadgen's scraped /metrics delta all
// produce it.
type BucketSnapshot struct {
	Bounds []float64 // finite upper bounds, strictly ascending
	Counts []uint64  // non-cumulative, len(Bounds)+1 slots, +Inf last
	Sum    float64
	Count  uint64
	// Min and Max are the exact observed extremes when HasMinMax is set.
	// Histograms record them; snapshots built from counts alone do not.
	Min, Max  float64
	HasMinMax bool
}

// Quantile estimates the q-quantile (0 < q < 1) Prometheus
// histogram_quantile style: find the bucket holding rank q·Count and
// interpolate linearly between its bounds, the first bucket spanning
// [0, Bounds[0]], so each estimate carries at most one bucket boundary of
// error. Mass in the +Inf bucket reads as the top of the distribution:
// Max when recorded, else the last finite bound. With recorded extremes an
// interpolated estimate is clamped to [Min, Max], since interpolation
// cannot know the true extremes inside a bucket but the snapshot does.
func (b BucketSnapshot) Quantile(q float64) float64 {
	rank := q * float64(b.Count)
	cum := uint64(0)
	for i, n := range b.Counts {
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(b.Bounds) {
			return b.top()
		}
		lower := 0.0
		if i > 0 {
			lower = b.Bounds[i-1]
		}
		upper := b.Bounds[i]
		if n == 0 {
			return upper
		}
		frac := (rank - float64(cum-n)) / float64(n)
		est := lower + (upper-lower)*frac
		if b.HasMinMax {
			if est < b.Min {
				est = b.Min
			}
			if est > b.Max {
				est = b.Max
			}
		}
		return est
	}
	return b.top()
}

// top is the estimate for mass past the last finite bound.
func (b BucketSnapshot) top() float64 {
	if b.HasMinMax {
		return b.Max
	}
	if len(b.Bounds) == 0 {
		return 0
	}
	return b.Bounds[len(b.Bounds)-1]
}

// Bracket returns the bounds of the bucket holding the ⌈q·Count⌉-th
// observation (q clamped to [0, 1], rank at least 1). Unlike Quantile it
// treats both outer buckets as open, so each collapses to its one finite
// bound. ok is false, with lo = hi = 0, on an empty snapshot. The true
// q-quantile of the observed multiset always lies inside the bracket.
func (b BucketSnapshot) Bracket(q float64) (lo, hi float64, ok bool) {
	if b.Count == 0 || len(b.Bounds) == 0 {
		return 0, 0, false
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(b.Count)))
	if rank < 1 {
		rank = 1
	}
	last := b.Bounds[len(b.Bounds)-1]
	var cum uint64
	for i, c := range b.Counts {
		if cum += c; cum < rank {
			continue
		}
		switch {
		case i == 0:
			return b.Bounds[0], b.Bounds[0], true
		case i == len(b.Bounds):
			return last, last, true
		default:
			return b.Bounds[i-1], b.Bounds[i], true
		}
	}
	return last, last, true
}

// BracketMid is the midpoint of Bracket(q): a point estimate that is never
// more than half a bucket from the true quantile. 0 on an empty snapshot.
func (b BucketSnapshot) BracketMid(q float64) float64 {
	lo, hi, _ := b.Bracket(q)
	return lo + (hi-lo)*0.5
}

// FractionAbove estimates the share of observations above threshold. The
// bucket straddling the threshold is split by linear interpolation (the
// first bucket spanning [0, Bounds[0]]); the +Inf bucket has no upper bound
// to interpolate against, so all of it counts as above — the conservative
// reading. 0 on an empty snapshot.
func (b BucketSnapshot) FractionAbove(threshold float64) float64 {
	if b.Count == 0 {
		return 0
	}
	var above float64
	lower := 0.0
	for i, n := range b.Counts {
		if i >= len(b.Bounds) {
			above += float64(n)
			continue
		}
		upper := b.Bounds[i]
		switch {
		case threshold <= lower:
			above += float64(n)
		case threshold >= upper:
			// entire bucket at or below the threshold
		default:
			above += float64(n) * (upper - threshold) / (upper - lower)
		}
		lower = upper
	}
	return above / float64(b.Count)
}

// Merge returns the union of b and o, which must share bounds. Either may
// be the zero snapshot. Neither input is modified.
func (b BucketSnapshot) Merge(o BucketSnapshot) BucketSnapshot {
	if b.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return b
	}
	out := BucketSnapshot{
		Bounds:    b.Bounds,
		Counts:    make([]uint64, len(b.Counts)),
		Sum:       b.Sum + o.Sum,
		Count:     b.Count + o.Count,
		Min:       math.Min(b.Min, o.Min),
		Max:       math.Max(b.Max, o.Max),
		HasMinMax: b.HasMinMax && o.HasMinMax,
	}
	for i := range out.Counts {
		out.Counts[i] = b.Counts[i] + o.Counts[i]
	}
	return out
}

// Summary is a compact latency rollup of one BucketSnapshot: total count,
// sum, and bucket-interpolated quantiles (BucketSnapshot.Quantile). It is
// the shared report currency of the observability stack — /debug/slo's
// windows, the loadgen report's client-side and scraped server-side
// latencies, and tests all speak Summary, so client-side and server-side
// measurements of the same traffic are directly comparable. Fields mirror
// /debug/analytics conventions: quantiles and the mean in microseconds, the
// sum in seconds.
type Summary struct {
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	MeanUS     float64 `json:"mean_us"`
	P50US      float64 `json:"p50_us"`
	P90US      float64 `json:"p90_us"`
	P99US      float64 `json:"p99_us"`
	P999US     float64 `json:"p999_us"`
}

// Summary rolls the snapshot up into a Summary; an empty snapshot yields
// the zero Summary.
func (b BucketSnapshot) Summary() Summary {
	if b.Count == 0 {
		return Summary{}
	}
	return Summary{
		Count:      b.Count,
		SumSeconds: b.Sum,
		MeanUS:     b.Sum / float64(b.Count) * 1e6,
		P50US:      b.Quantile(0.50) * 1e6,
		P90US:      b.Quantile(0.90) * 1e6,
		P99US:      b.Quantile(0.99) * 1e6,
		P999US:     b.Quantile(0.999) * 1e6,
	}
}

// SummaryFromBuckets is the Summary of non-cumulative bucket counts
// (len(bounds)+1 slots, +Inf last) with no recorded extremes, so
// observations in the +Inf bucket clamp to the last finite bound.
func SummaryFromBuckets(bounds []float64, counts []uint64, sum float64, count uint64) Summary {
	return BucketSnapshot{Bounds: bounds, Counts: counts, Sum: sum, Count: count}.Summary()
}

// CheckBounds reports why bounds cannot be a bucket layout: they must be
// non-empty, finite and strictly ascending.
func CheckBounds(bounds []float64) error {
	if len(bounds) == 0 {
		return fmt.Errorf("need at least one bucket bound")
	}
	for i, ub := range bounds {
		if math.IsNaN(ub) || math.IsInf(ub, 0) {
			return fmt.Errorf("bound %d is not finite", i)
		}
		if i > 0 && ub <= bounds[i-1] {
			return fmt.Errorf("bounds not strictly ascending at %d", i)
		}
	}
	return nil
}

// Snapshot returns one series' buckets, sum, count and observed extremes.
func (h *Histogram) Snapshot(labelValues ...string) BucketSnapshot {
	return h.f.get(labelValues).hist.snapshot(h.f.buckets)
}

// Summary rolls one series up into a quantile Summary.
func (h *Histogram) Summary(labelValues ...string) Summary {
	return h.Snapshot(labelValues...).Summary()
}

// BucketCounts converts a sample set into the non-cumulative bucket-count
// layout SummaryFromBuckets expects (len(bounds)+1 slots, +Inf last).
// Mainly for tests and offline summarization of raw latency slices.
func BucketCounts(bounds []float64, samples []float64) (counts []uint64, sum float64) {
	counts = make([]uint64, len(bounds)+1)
	for _, v := range samples {
		counts[sort.SearchFloat64s(bounds, v)]++
		sum += v
	}
	return counts, sum
}
