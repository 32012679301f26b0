package train

import (
	"fmt"
	"math"
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
)

// DefaultStatsBins is the target bin count for the training-distribution
// snapshot embedded in bundles. Ten quantile-spaced bins is the standard
// population-stability-index resolution: coarse enough that every bin
// holds real mass, fine enough that a shifted workload lights up.
const DefaultStatsBins = 10

// ComputeFeatureStats derives the per-feature training distribution the
// serving side scores live-traffic drift against. For each request
// feature present anywhere in the dataset it picks quantile-spaced bin
// edges (deduplicated, so grid-valued features get fewer, exact bins) and
// counts the training values into them using the same bucketing rule the
// drift monitor applies to live traffic. Deterministic for a fixed
// dataset.
func ComputeFeatureStats(ds *dataset.Dataset, bins int) (*bundle.FeatureStats, error) {
	if bins < 2 {
		bins = DefaultStatsBins
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("feature stats: dataset is empty")
	}
	stats := &bundle.FeatureStats{
		Source:   "train/sweep",
		Features: make(map[string]bundle.FeatureDist),
	}
	for _, name := range bundle.RequestFeatures {
		var values []float64
		for i := range ds.Examples {
			if v, ok := ds.Examples[i].Features[name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			continue
		}
		edges := quantileEdges(values, bins)
		if len(edges) == 0 {
			// A constant feature has no interior cut points; bin it as
			// "at the constant" vs "above it" so drift off the point mass
			// still registers.
			edges = []float64{values[0]}
		}
		d := bundle.FeatureDist{Edges: edges, Counts: make([]uint64, len(edges)+1)}
		for _, v := range values {
			d.Counts[d.BucketOf(v)]++
		}
		stats.Features[name] = d
	}
	if len(stats.Features) == 0 {
		return nil, fmt.Errorf("feature stats: no request feature present in any example")
	}
	return stats, nil
}

// quantileEdges picks up to bins-1 interior cut points at the k/bins
// quantiles of values, deduplicated and strictly ascending. Values backed
// by a small grid (node counts, log2 sizes) collapse to exact edges.
func quantileEdges(values []float64, bins int) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var edges []float64
	for k := 1; k < bins; k++ {
		idx := k * len(sorted) / bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		e := sorted[idx]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	// Drop a top edge equal to the maximum: it would leave a permanently
	// empty overflow bin and the bin below it covers the same mass.
	if len(edges) > 1 && edges[len(edges)-1] == sorted[len(sorted)-1] {
		edges = edges[:len(edges)-1]
	}
	return edges
}
