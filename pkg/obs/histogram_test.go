package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > want[i]*1e-12 {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if CheckBounds(got) != nil {
		t.Error("ExponentialBuckets produced non-ascending bounds")
	}
}

func TestExponentialBucketsPanicsOnBadArgs(t *testing.T) {
	cases := []struct {
		name          string
		start, factor float64
		count         int
	}{
		{"zero start", 0, 2, 4},
		{"negative start", -1, 2, 4},
		{"factor one", 1, 1, 4},
		{"zero count", 1, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			ExponentialBuckets(tc.start, tc.factor, tc.count)
		})
	}
}

func TestHistogramRejectsInvalidBuckets(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64
	}{
		{"descending", []float64{1, 0.5}},
		{"duplicate", []float64{1, 1}},
		{"nan", []float64{1, math.NaN()}},
		{"inf", []float64{1, math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewRegistry().Histogram("bad_seconds", "x", tc.buckets)
		})
	}
}

// TestHistogramBucketBoundaryPlacement pins the `le` semantics: an
// observation exactly on a bound lands in that bound's bucket, just above
// goes to the next, and anything beyond the last bound goes to +Inf only.
func TestHistogramBucketBoundaryPlacement(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("bound_seconds", "x", []float64{1, 2, 4})

	h.Observe(1)   // exactly on bound 1 → le="1"
	h.Observe(1.5) // le="2"
	h.Observe(2)   // exactly on bound 2 → le="2"
	h.Observe(4)   // exactly on last bound → le="4"
	h.Observe(4.1) // +Inf
	h.Observe(-3)  // below all bounds → first bucket

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`bound_seconds_bucket{le="1"} 2`, // 1 and -3, cumulative
		`bound_seconds_bucket{le="2"} 4`,
		`bound_seconds_bucket{le="4"} 5`,
		`bound_seconds_bucket{le="+Inf"} 6`,
		"bound_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramGoldenPrometheusOutput pins the complete text-format
// rendering of one histogram family, byte for byte.
func TestHistogramGoldenPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("golden_seconds", "Golden histogram.", []float64{0.25, 0.5}, "op")
	h.Observe(0.1, "a")
	h.Observe(0.3, "a")
	h.Observe(9, "a")
	h.Observe(0.5, "b")

	var b strings.Builder
	reg.WritePrometheus(&b)
	want := strings.Join([]string{
		"# HELP golden_seconds Golden histogram.",
		"# TYPE golden_seconds histogram",
		`golden_seconds_bucket{op="a",le="0.25"} 1`,
		`golden_seconds_bucket{op="a",le="0.5"} 2`,
		`golden_seconds_bucket{op="a",le="+Inf"} 3`,
		`golden_seconds_sum{op="a"} 9.4`,
		`golden_seconds_count{op="a"} 3`,
		`golden_seconds_bucket{op="b",le="0.25"} 0`,
		`golden_seconds_bucket{op="b",le="0.5"} 1`,
		`golden_seconds_bucket{op="b",le="+Inf"} 1`,
		`golden_seconds_sum{op="b"} 0.5`,
		`golden_seconds_count{op="b"} 1`,
		"",
	}, "\n")
	if b.String() != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHistogramConcurrentObserves hammers one series (both the labeled and
// the bound handle) from many goroutines; run under -race this proves the
// stripes synchronize correctly, and the final snapshot must account for
// every observation exactly once.
func TestHistogramConcurrentObserves(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_seconds", "x", []float64{0.001, 0.01, 0.1}, "op")
	bound := h.Bind("hot")

	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := float64(i%200) / 1000.0 // spread across all buckets incl. +Inf
				if g%2 == 0 {
					bound.Observe(v)
				} else {
					h.Observe(v, "hot")
				}
			}
		}(g)
	}
	// A concurrent scraper exercises snapshot-under-observation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			reg.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done

	if got := h.Count("hot"); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	// The cumulative +Inf bucket must equal the count.
	var b strings.Builder
	reg.WritePrometheus(&b)
	if want := `conc_seconds_bucket{op="hot",le="+Inf"} 32000`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q in:\n%s", want, b.String())
	}
}
