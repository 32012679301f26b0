package selector

import (
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// AnalyticsRow is one collective × algorithm rollup, as served on
// /debug/analytics: which algorithms the model actually picks, how often,
// and how fast. Latencies are in microseconds. Count, CacheHits, Mean, Min
// and Max are exact; the quantiles are interpolated within
// obs.LatencyBuckets and clamped to [Min, Max].
type AnalyticsRow struct {
	Collective string  `json:"collective"`
	Algorithm  string  `json:"algorithm"`
	Count      uint64  `json:"count"`
	CacheHits  uint64  `json:"cache_hits"`
	Share      float64 `json:"share"` // fraction of this collective's selections
	MeanUS     float64 `json:"mean_us"`
	MinUS      float64 `json:"min_us"`
	MaxUS      float64 `json:"max_us"`
	P50US      float64 `json:"p50_us"`
	P90US      float64 `json:"p90_us"`
	P99US      float64 `json:"p99_us"`
}

// Analytics rolls pmlmpi_select_duration_seconds up by (collective,
// algorithm), merging the cold and cache-hit paths. Only observed pairs get
// a row; rows are sorted by collective, then descending count (the dominant
// algorithm first), then algorithm name.
func (s *Selector) Analytics() []AnalyticsRow {
	type pair struct{ collective, algorithm string }
	merged := make(map[pair]obs.BucketSnapshot)
	hits := make(map[pair]uint64)
	s.duration.Each(func(lv []string, b obs.BucketSnapshot) {
		k := pair{lv[0], lv[1]}
		merged[k] = merged[k].Merge(b)
		if lv[2] == PathCacheHit {
			hits[k] += b.Count
		}
	})
	perCollective := make(map[string]uint64)
	rows := make([]AnalyticsRow, 0, len(merged))
	for k, b := range merged {
		if b.Count == 0 {
			continue
		}
		perCollective[k.collective] += b.Count
		rows = append(rows, AnalyticsRow{
			Collective: k.collective,
			Algorithm:  k.algorithm,
			Count:      b.Count,
			CacheHits:  hits[k],
			MeanUS:     b.Sum / float64(b.Count) * 1e6,
			MinUS:      b.Min * 1e6,
			MaxUS:      b.Max * 1e6,
			P50US:      b.Quantile(0.50) * 1e6,
			P90US:      b.Quantile(0.90) * 1e6,
			P99US:      b.Quantile(0.99) * 1e6,
		})
	}
	for i := range rows {
		rows[i].Share = float64(rows[i].Count) / float64(perCollective[rows[i].Collective])
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Collective != rows[j].Collective {
			return rows[i].Collective < rows[j].Collective
		}
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Algorithm < rows[j].Algorithm
	})
	return rows
}
