package selector

import (
	"math"
	"sync"
	"testing"
)

// The /debug/analytics rows are rolled up from
// pmlmpi_select_duration_seconds: one row per observed (collective,
// algorithm), cold and cache-hit merged, exact count/hits/mean/min/max,
// shares per collective, and a fixed sort order.

func TestRecordAndSnapshotBasics(t *testing.T) {
	s := newSynthSelector(t, Config{})
	s.duration.Observe(10e-6, "alltoall", "pairwise", PathCold)
	s.duration.Observe(20e-6, "alltoall", "pairwise", PathCacheHit)
	s.duration.Observe(5e-6, "alltoall", "linear", PathCold)
	s.duration.Observe(1e-6, "allgather", "ring", PathCold)

	rows := s.Analytics()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3: %+v", len(rows), rows)
	}
	// Sorted: allgather first, then alltoall by descending count.
	if rows[0].Collective != "allgather" || rows[1].Algorithm != "pairwise" || rows[2].Algorithm != "linear" {
		t.Errorf("row order = %+v", rows)
	}
	pw := rows[1]
	if pw.Count != 2 || pw.CacheHits != 1 {
		t.Errorf("pairwise count/hits = %d/%d, want 2/1", pw.Count, pw.CacheHits)
	}
	if math.Abs(pw.MeanUS-15) > 1e-9 || math.Abs(pw.MinUS-10) > 1e-9 || math.Abs(pw.MaxUS-20) > 1e-9 {
		t.Errorf("pairwise mean/min/max = %v/%v/%v µs, want 15/10/20", pw.MeanUS, pw.MinUS, pw.MaxUS)
	}
	if math.Abs(pw.Share-2.0/3.0) > 1e-9 || math.Abs(rows[2].Share-1.0/3.0) > 1e-9 || rows[0].Share != 1 {
		t.Errorf("shares = %v/%v/%v, want 1, 2/3, 1/3", rows[0].Share, pw.Share, rows[2].Share)
	}
	for _, r := range rows {
		for _, q := range []float64{r.P50US, r.P90US, r.P99US} {
			if q < r.MinUS || q > r.MaxUS {
				t.Errorf("%s/%s quantile %v µs outside [%v, %v]", r.Collective, r.Algorithm, q, r.MinUS, r.MaxUS)
			}
		}
	}
}

func TestQuantileEstimation(t *testing.T) {
	s := newSynthSelector(t, Config{})
	// 100 observations uniformly placed in the bucket (25µs, 50µs]: all
	// land in that bucket.
	for i := 0; i < 100; i++ {
		s.duration.Observe(25e-6+25e-6*float64(i+1)/100, "c", "a", PathCold)
	}
	r := s.Analytics()[0]
	// p50 interpolates to the middle of the bucket → ~37.5 µs.
	if math.Abs(r.P50US-37.5) > 3 {
		t.Errorf("p50 = %v µs, want ≈37.5", r.P50US)
	}
	if r.P99US < r.P50US || r.P99US > r.MaxUS {
		t.Errorf("p99 = %v µs outside [p50=%v, max=%v]", r.P99US, r.P50US, r.MaxUS)
	}
	// Quantiles clamp to observed extremes.
	if r.P50US < r.MinUS {
		t.Errorf("p50 %v below min %v", r.P50US, r.MinUS)
	}
}

func TestQuantileBeyondLastBucketClampsToMax(t *testing.T) {
	s := newSynthSelector(t, Config{})
	s.duration.Observe(5, "c", "a", PathCold) // past the last bound → +Inf bucket
	s.duration.Observe(7, "c", "a", PathCold)
	r := s.Analytics()[0]
	if r.P99US != r.MaxUS || r.MaxUS != 7e6 {
		t.Errorf("p99/max = %v/%v µs, want both 7e6", r.P99US, r.MaxUS)
	}
}

func TestEmptySnapshot(t *testing.T) {
	// New binds a series pair per (collective, algorithm) at start-up;
	// series that were never observed into must not surface.
	s := newSynthSelector(t, Config{})
	if rows := s.Analytics(); len(rows) != 0 {
		t.Errorf("series bound but never observed produced rows: %+v", rows)
	}
}

func TestConcurrentRecord(t *testing.T) {
	s := newSynthSelector(t, Config{})
	cold := s.duration.Bind("c", "hot", PathCold)
	hit := s.duration.Bind("c", "hot", PathCacheHit)
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := 1e-6 * float64(i%100+1)
				switch {
				case g%2 == 1:
					s.duration.Observe(v, "c", "hot", PathCold)
				case i%2 == 0:
					hit.Observe(v)
				default:
					cold.Observe(v)
				}
			}
		}(g)
	}
	// Concurrent rollups must not race with recorders.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Analytics()
		}
	}()
	wg.Wait()
	<-done

	r := s.Analytics()[0]
	if r.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", r.Count, goroutines*perG)
	}
	if r.CacheHits != goroutines/2*perG/2 {
		t.Errorf("cache hits = %d, want %d", r.CacheHits, goroutines/2*perG/2)
	}
	if math.Abs(r.MinUS-1) > 1e-9 || math.Abs(r.MaxUS-100) > 1e-9 {
		t.Errorf("min/max = %v/%v µs, want 1/100", r.MinUS, r.MaxUS)
	}
}
