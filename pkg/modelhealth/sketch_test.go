package modelhealth

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestNewSketchValidation(t *testing.T) {
	cases := []struct {
		name  string
		edges []float64
	}{
		{"empty", nil},
		{"nan", []float64{1, math.NaN()}},
		{"inf", []float64{math.Inf(1)}},
		{"descending", []float64{2, 1}},
		{"duplicate", []float64{1, 1}},
	}
	for _, tc := range cases {
		if _, err := NewSketch(tc.edges); err == nil {
			t.Errorf("%s: NewSketch(%v) accepted invalid edges", tc.name, tc.edges)
		}
	}
	if _, err := NewSketch([]float64{1, 2, 4}); err != nil {
		t.Fatalf("valid edges rejected: %v", err)
	}
}

// TestSketchQuantileRankErrorBound is the rank-error property: for any
// observed multiset and any q, the true rank-ceil(q*n) order statistic must
// land in the same bin the sketch reports the quantile from. The sketch
// cannot do better than bucket resolution, and this pins that it never does
// worse.
func TestSketchQuantileRankErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nEdges := 1 + rng.Intn(12)
		edges := make([]float64, 0, nEdges)
		prev := rng.Float64() * 10
		for len(edges) < nEdges {
			prev += 0.1 + rng.Float64()*5
			edges = append(edges, prev)
		}
		s := MustSketch(edges)
		n := 1 + rng.Intn(500)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.NormFloat64()*8 + 10
			s.Observe(values[i])
		}
		sort.Float64s(values)

		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			trueBin := bucketOf(edges, values[rank-1])

			// Recompute the bin the sketch answers from: first bin whose
			// cumulative count reaches the rank.
			var cum uint64
			gotBin := len(edges)
			for i, c := range s.Counts() {
				cum += c
				if cum >= uint64(rank) {
					gotBin = i
					break
				}
			}
			if gotBin != trueBin {
				t.Fatalf("trial %d q=%v: sketch answers from bin %d, true quantile %v is in bin %d",
					trial, q, gotBin, values[rank-1], trueBin)
			}
			// And the point estimate must fall inside (or on the edge of)
			// that bin's bracket.
			lo, hi := s.QuantileBracket(q)
			est := s.Quantile(q)
			if est < lo || est > hi {
				t.Fatalf("trial %d q=%v: estimate %v outside bracket [%v,%v]", trial, q, est, lo, hi)
			}
		}
	}
}

func TestSketchQuantileEmpty(t *testing.T) {
	s := MustSketch([]float64{1, 2})
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty sketch quantile = %v, want 0", got)
	}
}

// TestSketchDeterministicAcrossInterleavings: the same multiset observed
// under different goroutine partitions yields bit-identical counts —
// integer atomics commute exactly, no float accumulation order anywhere.
func TestSketchDeterministicAcrossInterleavings(t *testing.T) {
	edges := []float64{1, 2, 4, 8, 16}
	rng := rand.New(rand.NewSource(99))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = rng.ExpFloat64() * 6
	}

	sequential := MustSketch(edges)
	for _, v := range values {
		sequential.Observe(v)
	}
	want := sequential.Counts()

	for _, workers := range []int{2, 7, 16} {
		s := MustSketch(edges)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(values); i += workers {
					s.Observe(values[i])
				}
			}(w)
		}
		wg.Wait()
		got := s.Counts()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: counts[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSketchSnapshotGoldenJSON pins the exact serialized form served on the
// debug endpoints.
func TestSketchSnapshotGoldenJSON(t *testing.T) {
	s := MustSketch([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100, math.NaN()} {
		s.Observe(v)
	}
	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Bin layout: v <= 1 | 1 < v <= 2 | 2 < v <= 4 | v > 4 (NaN lands in
	// the overflow bin — every comparison against it is false).
	const golden = `{"edges":[1,2,4],"counts":[2,2,2,3],"total":9}`
	if string(raw) != golden {
		t.Fatalf("snapshot JSON = %s, want pinned %s", raw, golden)
	}
}

func TestSketchReset(t *testing.T) {
	s := MustSketch([]float64{1})
	s.Observe(0)
	s.Observe(2)
	s.Reset()
	if c := s.Counts(); s.Total() != 0 || c[0] != 0 || c[1] != 0 {
		t.Fatalf("reset left counts %v total %d", s.Counts(), s.Total())
	}
}
