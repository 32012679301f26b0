package bundle

import (
	"fmt"
	"math"
	"sort"
)

// FeatureStats is the optional training-distribution snapshot a trainer can
// embed in a bundle under the reserved "feature_stats" key (JSON) or
// section tag 3 (binary). It records, per request feature, the binned
// distribution of that feature over the training sweep, giving the serving
// side a reference to score live-traffic drift against. Bundles written
// before this field existed simply omit it; every consumer must tolerate
// its absence.
type FeatureStats struct {
	// Source names where the distribution came from, e.g. "train/sweep".
	Source string `json:"source,omitempty"`
	// Features maps request feature names to their training distribution.
	Features map[string]FeatureDist `json:"features"`
}

// FeatureDist is one feature's binned training distribution: strictly
// ascending interior cut points plus one count per bin. Bin i covers
// (Edges[i-1], Edges[i]]; the first bin is open below, the last
// (Counts[len(Edges)]) is open above.
type FeatureDist struct {
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"`
}

// BucketOf returns the bin index for v under the shared binning convention
// (first edge >= v, overflow bin past the last edge). Every producer and
// consumer of FeatureDist counts — trainer and drift monitor alike — must
// bucket through this one function so their histograms are comparable.
func (d FeatureDist) BucketOf(v float64) int {
	return sort.SearchFloat64s(d.Edges, v)
}

// Total returns the number of training observations behind the distribution.
func (d FeatureDist) Total() uint64 {
	var t uint64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// FeatureNames returns the sorted feature names present in the stats.
func (s *FeatureStats) FeatureNames() []string {
	names := make([]string, 0, len(s.Features))
	for n := range s.Features {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func validateFeatureStats(s *FeatureStats) error {
	if len(s.Features) == 0 {
		return fmt.Errorf("feature_stats: empty features table")
	}
	request := make(map[string]bool, len(RequestFeatures))
	for _, n := range RequestFeatures {
		request[n] = true
	}
	for name, d := range s.Features {
		if !request[name] {
			return fmt.Errorf("feature_stats: %q is not a canonical feature a request carries", name)
		}
		if len(d.Edges) == 0 {
			return fmt.Errorf("feature_stats: feature %q has no bin edges", name)
		}
		for i, e := range d.Edges {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return fmt.Errorf("feature_stats: feature %q edge %d is not finite", name, i)
			}
			if i > 0 && e <= d.Edges[i-1] {
				return fmt.Errorf("feature_stats: feature %q edges not strictly ascending at %d", name, i)
			}
		}
		if len(d.Counts) != len(d.Edges)+1 {
			return fmt.Errorf("feature_stats: feature %q has %d counts for %d edges (want %d)",
				name, len(d.Counts), len(d.Edges), len(d.Edges)+1)
		}
		if d.Total() == 0 {
			return fmt.Errorf("feature_stats: feature %q has zero total count", name)
		}
	}
	return nil
}
