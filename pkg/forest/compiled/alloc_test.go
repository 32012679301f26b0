package compiled_test

import (
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// allocFixture compiles one collective of a mid-sized synthetic bundle and
// extracts a feature vector for it.
func allocFixture(t testing.TB) (cf *compiled.Forest, x []float64) {
	t.Helper()
	b := synth.MustNew(synth.Config{Seed: 21, Collectives: []string{"alloc"}, Trees: 48, Depth: 8, Features: 8, Classes: 5})
	c := b.Collectives["alloc"]
	v, err := c.Vector(synth.Points(21, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	return c.Compiled(), v
}

// TestPredictIntoZeroAlloc pins the hot path's allocation contract: with a
// reused Prediction, PredictInto allocates nothing per call.
func TestPredictIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	cf, x := allocFixture(t)
	var p forest.Prediction
	if err := cf.PredictInto(x, &p); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := cf.PredictInto(x, &p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPredictBatchZeroAllocSteadyState pins the sequential batch path: once
// the output slots' Probs/Votes buffers are warm, a below-threshold batch
// allocates nothing.
func TestPredictBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	cf, x := allocFixture(t)
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = x
	}
	out := make([]forest.Prediction, len(xs))
	if err := cf.PredictBatch(xs, out); err != nil { // warm every slot
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cf.PredictBatch(xs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sequential PredictBatch allocates %.1f objects per call, want 0", allocs)
	}
}
