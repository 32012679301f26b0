// Package dataset holds labeled training examples for the PML-MPI trainer
// and ingests them from benchmark records (CSV or JSONL, in the spirit of
// PICO-style collective benchmark logs). A record carries a collective, a
// named feature map, and either an explicit winning algorithm or the
// per-algorithm measured latencies, from which the label is the argmin.
// Ingestion validates aggressively — unknown collectives, unknown
// algorithm names, non-canonical features, NaN/Inf values, and arity
// mismatches are row-numbered errors, never silent corruption.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
)

// Example is one labeled training point.
type Example struct {
	// Collective names the MPI collective this point belongs to.
	Collective string `json:"collective"`
	// Features is the named feature map (canonical names only).
	Features map[string]float64 `json:"features"`
	// Label is the winning algorithm's class index in the collective's
	// class-ordered algorithm list.
	Label int `json:"label"`
	// Algorithm is the winning algorithm's name (redundant with Label,
	// kept for human-readable dumps).
	Algorithm string `json:"algorithm"`
}

// Dataset is a collection of labeled examples plus the algorithm table
// that defines each collective's class ordering.
type Dataset struct {
	// Algorithms maps collective → class-ordered algorithm names.
	Algorithms map[string][]string
	Examples   []Example
}

// New builds an empty dataset over the given algorithm table.
func New(algorithms map[string][]string) *Dataset {
	return &Dataset{Algorithms: algorithms}
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Collectives returns the sorted collectives that actually appear in the
// examples.
func (d *Dataset) Collectives() []string {
	seen := map[string]bool{}
	for i := range d.Examples {
		seen[d.Examples[i].Collective] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ByCollective partitions the examples by collective, preserving order.
func (d *Dataset) ByCollective() map[string][]Example {
	out := make(map[string][]Example)
	for _, ex := range d.Examples {
		out[ex.Collective] = append(out[ex.Collective], ex)
	}
	return out
}

// classOf resolves an algorithm name to its class index for a collective.
func (d *Dataset) classOf(collective, algorithm string) (int, error) {
	names, ok := d.Algorithms[collective]
	if !ok {
		return 0, fmt.Errorf("unknown collective %q", collective)
	}
	for i, n := range names {
		if n == algorithm {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q for collective %q (have %v)", algorithm, collective, names)
}

// validateFeatures checks that a feature map is non-empty, uses only
// request feature names, and holds finite values. A derived feature is
// refused by name: it is computed from num_nodes and ppn, never recorded.
func validateFeatures(features map[string]float64) error {
	if len(features) == 0 {
		return fmt.Errorf("empty feature map")
	}
	if err := bundle.CheckRequestFeatures(features); err != nil {
		return err
	}
	for name, v := range features {
		if !requestFeature(name) {
			return fmt.Errorf("feature %q is not a canonical feature (see bundle.RequestFeatures)", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("feature %q has non-finite value %v", name, v)
		}
	}
	return nil
}

func requestFeature(name string) bool {
	for _, c := range bundle.RequestFeatures {
		if c == name {
			return true
		}
	}
	return false
}

// labelFromLatencies picks the argmin-latency algorithm. Every latency
// must be finite and positive; ties break toward the lowest class index.
func (d *Dataset) labelFromLatencies(collective string, lat map[string]float64) (int, string, error) {
	if len(lat) == 0 {
		return 0, "", fmt.Errorf("no latencies")
	}
	names, ok := d.Algorithms[collective]
	if !ok {
		return 0, "", fmt.Errorf("unknown collective %q", collective)
	}
	best := -1
	var bestLat float64
	for i, n := range names {
		v, ok := lat[n]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return 0, "", fmt.Errorf("algorithm %q has invalid latency %v (must be finite and positive)", n, v)
		}
		if best < 0 || v < bestLat {
			best, bestLat = i, v
		}
	}
	if best < 0 {
		return 0, "", fmt.Errorf("no latency names a known algorithm of %q (have %v)", collective, names)
	}
	// Reject latencies that name algorithms outside the table: a typo in
	// an algorithm column must not silently drop a measurement.
	for n, v := range lat {
		if _, err := d.classOf(collective, n); err != nil {
			return 0, "", err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return 0, "", fmt.Errorf("algorithm %q has invalid latency %v (must be finite and positive)", n, v)
		}
	}
	return best, names[best], nil
}

// add validates and appends one example built from raw record fields.
// algorithm may be empty when latencies determine the label.
func (d *Dataset) add(collective string, features map[string]float64, algorithm string, latencies map[string]float64) error {
	rec := Record{Collective: collective, Features: features, Algorithm: algorithm, LatenciesUS: latencies}
	cls, name, err := ValidateRecord(d.Algorithms, &rec)
	if err != nil {
		return err
	}
	d.Examples = append(d.Examples, Example{
		Collective: collective,
		Features:   features,
		Label:      cls,
		Algorithm:  name,
	})
	return nil
}

// key derives the deduplication identity of an example: the collective
// plus every feature printed at full float precision in sorted name order.
func key(ex *Example) string {
	return Key(ex.Collective, ex.Features)
}

// Dedup removes examples whose (collective, features) identity repeats,
// keeping the first occurrence, and returns how many were dropped.
// Benchmark logs commonly repeat configurations across runs; keeping
// duplicates would leak identical points across a later train/test split.
func (d *Dataset) Dedup() int {
	seen := make(map[string]struct{}, len(d.Examples))
	kept := d.Examples[:0]
	for i := range d.Examples {
		k := key(&d.Examples[i])
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, d.Examples[i])
	}
	dropped := len(d.Examples) - len(kept)
	d.Examples = kept
	return dropped
}

// Merge appends every example of other into d. The two datasets must use
// the same algorithm table pointer-for-pointer or value-for-value; class
// indices are only meaningful relative to a table.
func (d *Dataset) Merge(other *Dataset) error {
	for coll, names := range other.Algorithms {
		have, ok := d.Algorithms[coll]
		if !ok {
			return fmt.Errorf("merge: collective %q missing from target algorithm table", coll)
		}
		if len(have) != len(names) {
			return fmt.Errorf("merge: collective %q has %d algorithms in target, %d in source", coll, len(have), len(names))
		}
		for i := range names {
			if have[i] != names[i] {
				return fmt.Errorf("merge: collective %q class %d is %q in target, %q in source", coll, i, have[i], names[i])
			}
		}
	}
	d.Examples = append(d.Examples, other.Examples...)
	return nil
}

// Split partitions the dataset into train and test sets, stratified by
// (collective, label) so every class keeps its share on both sides.
// Deterministic for a fixed seed: strata are visited in sorted order and
// shuffled with a seeded generator. Single-example strata stay in train.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	train = New(d.Algorithms)
	test = New(d.Algorithms)
	if testFrac <= 0 {
		train.Examples = append(train.Examples, d.Examples...)
		return train, test
	}
	if testFrac >= 1 {
		test.Examples = append(test.Examples, d.Examples...)
		return train, test
	}
	strata := make(map[string][]int)
	for i := range d.Examples {
		k := fmt.Sprintf("%s/%03d", d.Examples[i].Collective, d.Examples[i].Label)
		strata[k] = append(strata[k], i)
	}
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(seed))
	for _, k := range keys {
		idx := strata[k]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTest := int(math.Round(float64(len(idx)) * testFrac))
		if nTest >= len(idx) {
			nTest = len(idx) - 1
		}
		for i, id := range idx {
			if i < nTest {
				test.Examples = append(test.Examples, d.Examples[id])
			} else {
				train.Examples = append(train.Examples, d.Examples[id])
			}
		}
	}
	return train, test
}

// LabelCounts tallies examples per class for one collective.
func (d *Dataset) LabelCounts(collective string) []int {
	names := d.Algorithms[collective]
	counts := make([]int, len(names))
	for i := range d.Examples {
		ex := &d.Examples[i]
		if ex.Collective == collective && ex.Label >= 0 && ex.Label < len(counts) {
			counts[ex.Label]++
		}
	}
	return counts
}
