package obs

import (
	"math"
	"testing"
)

// TestBucketSnapshotEstimators pins every BucketSnapshot estimator, bit for
// bit, to the four implementations it replaced. The expected values were
// produced by running those implementations on the same layouts:
//
//   - quantile: the count-only Summary quantile, including the +Inf clamp
//     to the last finite bound;
//   - quantileMinMax: the /debug/analytics quantile with exact extremes,
//     including the [min, max] clamp and +Inf reading as max;
//   - mid and bracket: the model-health sketch's bracket of rank ⌈q·n⌉ and
//     its midpoint, where both outer buckets are open;
//   - above: the SLO slow fraction at the five thresholds of aboveAt.
func TestBucketSnapshotEstimators(t *testing.T) {
	qs := []float64{0.1, 0.5, 0.9, 0.99, 0.999, 1}
	bracketQs := append([]float64{0}, qs...)
	aboveAt := func(b []float64) []float64 {
		return []float64{b[0] / 2, b[0], (b[0] + b[1]) / 2, b[len(b)-1], b[len(b)-1] * 3}
	}
	type pair [2]float64
	cases := []struct {
		name           string
		bounds         []float64
		counts         []uint64
		min, max       float64
		quantile       []float64 // at qs
		quantileMinMax []float64 // at qs
		mid            []float64 // at bracketQs
		bracket        []pair    // at bracketQs
		above          []float64 // at aboveAt(bounds)
	}{
		{
			name: "spread", bounds: []float64{1, 2, 4, 8}, counts: []uint64{1, 3, 5, 0, 2}, min: 0.5, max: 20,
			quantile:       []float64{1.0333333333333334, 2.6, 8, 8, 8, 8},
			quantileMinMax: []float64{1.0333333333333334, 2.6, 20, 20, 20, 20},
			mid:            []float64{1, 1.5, 3, 8, 8, 8, 8},
			bracket:        []pair{{1, 1}, {1, 2}, {2, 4}, {8, 8}, {8, 8}, {8, 8}, {8, 8}},
			above:          []float64{0.9545454545454546, 0.9090909090909091, 0.7727272727272727, 0.18181818181818182, 0.18181818181818182},
		},
		{
			name: "tight", bounds: []float64{1, 2, 4, 8}, counts: []uint64{0, 0, 7, 0, 0}, min: 2.5, max: 3.25,
			quantile:       []float64{2.2, 3, 3.8, 3.98, 3.998, 4},
			quantileMinMax: []float64{2.5, 3, 3.25, 3.25, 3.25, 3.25},
			mid:            []float64{3, 3, 3, 3, 3, 3, 3},
			bracket:        []pair{{2, 4}, {2, 4}, {2, 4}, {2, 4}, {2, 4}, {2, 4}, {2, 4}},
			above:          []float64{1, 1, 1, 0, 0},
		},
		{
			name: "inf-only", bounds: []float64{0.001, 0.01, 0.1}, counts: []uint64{0, 0, 0, 5}, min: 0.2, max: 0.7,
			quantile:       []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
			quantileMinMax: []float64{0.7, 0.7, 0.7, 0.7, 0.7, 0.7},
			mid:            []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
			bracket:        []pair{{0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}},
			above:          []float64{1, 1, 1, 1, 1},
		},
		{
			name: "first", bounds: []float64{0.001, 0.01, 0.1}, counts: []uint64{4, 0, 1, 0}, min: 0.0002, max: 0.05,
			quantile:       []float64{0.000125, 0.000625, 0.05500000000000001, 0.09550000000000002, 0.09955000000000001, 0.1},
			quantileMinMax: []float64{0.0002, 0.000625, 0.05, 0.05, 0.05, 0.05},
			mid:            []float64{0.001, 0.001, 0.001, 0.05500000000000001, 0.05500000000000001, 0.05500000000000001, 0.05500000000000001},
			bracket:        []pair{{0.001, 0.001}, {0.001, 0.001}, {0.001, 0.001}, {0.01, 0.1}, {0.01, 0.1}, {0.01, 0.1}, {0.01, 0.1}},
			above:          []float64{0.6, 0.2, 0.2, 0, 0},
		},
		{
			name:   "gaps",
			bounds: []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4}, counts: []uint64{0, 12, 0, 30, 1, 0, 4, 3}, min: 1.2e-6, max: 0.0007,
			quantile:       []float64{1.6250000000000001e-06, 7.166666666666667e-06, 7.500000000000001e-05, 0.0001, 0.0001, 0.0001},
			quantileMinMax: []float64{1.6250000000000001e-06, 7.166666666666667e-06, 7.500000000000001e-05, 0.0007, 0.0007, 0.0007},
			mid:            []float64{1.7500000000000002e-06, 1.7500000000000002e-06, 7.500000000000001e-06, 7.500000000000001e-05, 0.0001, 0.0001, 0.0001},
			bracket:        []pair{{1e-06, 2.5e-06}, {1e-06, 2.5e-06}, {5e-06, 1e-05}, {5e-05, 0.0001}, {0.0001, 0.0001}, {0.0001, 0.0001}, {0.0001, 0.0001}},
			above:          []float64{1, 1, 0.88, 0.06, 0.06},
		},
		{
			name: "empty", bounds: []float64{1, 2}, counts: []uint64{0, 0, 0},
			quantile:       []float64{1, 1, 1, 1, 1, 1},
			quantileMinMax: []float64{1, 1, 1, 1, 1, 1},
			mid:            []float64{0, 0, 0, 0, 0, 0, 0},
			bracket:        []pair{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
			above:          []float64{0, 0, 0, 0, 0},
		},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var n uint64
			for _, c := range tc.counts {
				n += c
			}
			plain := BucketSnapshot{Bounds: tc.bounds, Counts: tc.counts, Count: n}
			ranged := plain
			ranged.Min, ranged.Max, ranged.HasMinMax = tc.min, tc.max, true
			for i, q := range qs {
				if got := plain.Quantile(q); !same(got, tc.quantile[i]) {
					t.Errorf("Quantile(%v) = %v, want %v", q, got, tc.quantile[i])
				}
				if got := ranged.Quantile(q); !same(got, tc.quantileMinMax[i]) {
					t.Errorf("Quantile(%v) with min/max = %v, want %v", q, got, tc.quantileMinMax[i])
				}
			}
			for i, q := range bracketQs {
				lo, hi, ok := plain.Bracket(q)
				if !same(lo, tc.bracket[i][0]) || !same(hi, tc.bracket[i][1]) || ok != (n > 0) {
					t.Errorf("Bracket(%v) = {%v, %v} %v, want %v", q, lo, hi, ok, tc.bracket[i])
				}
				if got := plain.BracketMid(q); !same(got, tc.mid[i]) {
					t.Errorf("BracketMid(%v) = %v, want %v", q, got, tc.mid[i])
				}
			}
			for i, th := range aboveAt(tc.bounds) {
				if got := plain.FractionAbove(th); !same(got, tc.above[i]) {
					t.Errorf("FractionAbove(%v) = %v, want %v", th, got, tc.above[i])
				}
			}
		})
	}
}

func TestFractionAboveInterpolation(t *testing.T) {
	// 10 observations in (0.01, 0.1]; threshold midway through the bucket
	// should count roughly half as above.
	b := BucketSnapshot{Bounds: []float64{0.001, 0.01, 0.1}, Counts: []uint64{0, 0, 10, 0}, Count: 10}
	if got := b.FractionAbove(0.055); math.Abs(got-0.5) > 0.01 {
		t.Errorf("straddled fraction = %v, want ~0.5", got)
	}
	if got := b.FractionAbove(0.2); got != 0 {
		t.Errorf("threshold above all mass: fraction = %v, want 0", got)
	}
	if got := b.FractionAbove(0.001); got != 1 {
		t.Errorf("threshold below all mass: fraction = %v, want 1", got)
	}
	// +Inf bucket mass is always above.
	b.Counts, b.Count = []uint64{0, 0, 0, 5}, 5
	if got := b.FractionAbove(0.5); got != 1 {
		t.Errorf("+Inf mass fraction = %v, want 1", got)
	}
}

// TestHistogramSnapshotMinMax pins the exact extremes a histogram series
// records and the clamp they put on its quantiles.
func TestHistogramSnapshotMinMax(t *testing.T) {
	h := NewRegistry().Histogram("t_minmax", "test", []float64{1, 2, 4}, "k")
	if b := h.Snapshot("a"); b.HasMinMax || b.Count != 0 {
		t.Fatalf("empty series = %+v, want no extremes", b)
	}
	for _, v := range []float64{2.5, 3.5, 3, 9} {
		h.Observe(v, "a")
	}
	b := h.Snapshot("a")
	if !b.HasMinMax || b.Min != 2.5 || b.Max != 9 || b.Count != 4 || b.Sum != 18 {
		t.Fatalf("snapshot = %+v, want min 2.5 max 9 count 4 sum 18", b)
	}
	if got := b.Quantile(0.1); got != 2.5 {
		t.Errorf("p10 = %v, want the clamp to min 2.5", got)
	}
	if got := b.Quantile(0.99); got != 9 {
		t.Errorf("p99 = %v, want the +Inf bucket to read max 9", got)
	}
	var seen int
	h.Each(func(lv []string, s BucketSnapshot) {
		seen++
		if len(lv) != 1 || lv[0] != "a" || s.Count != 4 {
			t.Errorf("Each: %v %+v", lv, s)
		}
	})
	if seen != 1 {
		t.Errorf("Each visited %d series, want 1", seen)
	}
}

func TestBucketSnapshotMerge(t *testing.T) {
	a := BucketSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{1, 0, 1}, Sum: 3.5, Count: 2, Min: 0.5, Max: 3, HasMinMax: true}
	b := BucketSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 2, 0}, Sum: 3, Count: 2, Min: 1.5, Max: 1.5, HasMinMax: true}
	m := a.Merge(b)
	if m.Count != 4 || m.Sum != 6.5 || m.Min != 0.5 || m.Max != 3 || !m.HasMinMax {
		t.Fatalf("merged = %+v", m)
	}
	if m.Counts[0] != 1 || m.Counts[1] != 2 || m.Counts[2] != 1 {
		t.Errorf("merged counts = %v, want [1 2 1]", m.Counts)
	}
	if a.Counts[1] != 0 {
		t.Errorf("Merge modified its receiver: %v", a.Counts)
	}
	if got := (BucketSnapshot{}).Merge(a); got.Count != 2 || got.Max != 3 {
		t.Errorf("zero.Merge(a) = %+v, want a", got)
	}
}
