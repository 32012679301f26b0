package compiled_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// benchShapes mirrors pkg/forest's BenchmarkForestPredict shapes so the two
// benchmarks compare like for like.
var benchShapes = []struct {
	trees, depth int
}{
	{16, 5},
	{64, 8},
	{256, 10},
}

func BenchmarkCompiledPredict(b *testing.B) {
	for _, shape := range benchShapes {
		bd := synth.MustNew(synth.Config{Seed: 99, Collectives: []string{"bench"}, Trees: shape.trees, Depth: shape.depth, Features: 6, Classes: 5})
		c := bd.Collectives["bench"]
		cf := c.Compiled()
		x, err := c.Vector(synth.Points(99, 1)[0])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("trees=%d/depth=%d", shape.trees, shape.depth), func(b *testing.B) {
			var p forest.Prediction
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cf.PredictInto(x, &p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompiledPredictBatch(b *testing.B) {
	bd := synth.MustNew(synth.Config{Seed: 99, Collectives: []string{"bench"}, Trees: 64, Depth: 8, Features: 6, Classes: 5})
	c := bd.Collectives["bench"]
	cf := c.Compiled()
	points := synth.Points(99, 512)
	xs := make([][]float64, len(points))
	for i, pt := range points {
		x, err := c.Vector(pt)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = x
	}
	for _, size := range []int{16, 64, 256, 512} {
		out := make([]forest.Prediction, size)
		b.Run(fmt.Sprintf("vectors=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cf.PredictBatch(xs[:size], out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// bestSpeedup measures slow and fast back to back with testing.Benchmark,
// for up to seven rounds, and returns the best round's slow/fast ratio with
// that round's readings; it stops as soon as a round reaches want. On a
// shared host a busy neighbour can halve either side of any one round, and
// never speeds one up: a guard that fails only when no round in seven shows
// the speedup fails for the code, not for the weather.
func bestSpeedup(want float64, slow, fast func(b *testing.B)) (ratio float64, slowNs, fastNs int64) {
	for round := 0; round < 7 && ratio < want; round++ {
		s, f := testing.Benchmark(slow).NsPerOp(), testing.Benchmark(fast).NsPerOp()
		if r := float64(s) / float64(f); r > ratio {
			ratio, slowNs, fastNs = r, s, f
		}
	}
	return ratio, slowNs, fastNs
}

// skipTimingGuard skips where timing ratios mean nothing: under -race and
// in -short runs (they need an unloaded, uninstrumented process).
func skipTimingGuard(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing ratios are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("speedup guard skipped in -short mode")
	}
}

// paperBundle is the paper's own 9.2 MB bundle, the model the benchmark's
// cold_batch workload serves: 60 and 100 trees of several hundred leaves
// each, the shape the evaluators are built for.
const paperBundle = "../../../.pmlbench/bundle_all_full.json"

// paperVectors extracts n distinct in-hull feature vectors for c, drawn
// the way the benchmark draws its points: job shapes on the balanced
// cluster of the training sweep, message sizes continuous.
func paperVectors(t testing.TB, c *bundle.Collective, n int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, n)
	for i := range xs {
		features := perfmodel.DefaultSystems[1].Features(float64(2+rng.Intn(31)), float64(1+rng.Intn(32)), 2+20*rng.Float64())
		x, err := c.Vector(features)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = x
	}
	return xs
}

// TestCompiledSpeedup is the CI performance guard of the single-vector
// evaluator against the pointer walk: at least 2x on the committed
// trainer-emitted fixture replaying one vector, and at least 1.5x on the
// paper's bundle over 2048 vectors it has not seen — the forest only ever
// runs on a decision-cache miss — where a branchy walk mispredicts and both
// sides wait on the same cache misses.
func TestCompiledSpeedup(t *testing.T) {
	skipTimingGuard(t)
	for _, shape := range []struct {
		name, path string
		want       float64
		vectors    func(c *bundle.Collective) [][]float64
	}{
		{"trained fixture", trainedFixture, 2, func(c *bundle.Collective) [][]float64 {
			x, err := c.Vector(synth.Points(7, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			return [][]float64{x}
		}},
		{"paper bundle", paperBundle, 1.5, func(c *bundle.Collective) [][]float64 { return paperVectors(t, c, 2048) }},
	} {
		b, err := bundle.Load(shape.path)
		if err != nil {
			t.Fatalf("Load(%s): %v", shape.path, err)
		}
		for name, c := range b.Collectives {
			c, cf, xs := c, c.Compiled(), shape.vectors(c)
			ratio, pointerNs, compiledNs := bestSpeedup(shape.want,
				func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := c.Forest.Predict(xs[i%len(xs)]); err != nil {
							b.Fatal(err)
						}
					}
				},
				func(b *testing.B) {
					var p forest.Prediction
					for i := 0; i < b.N; i++ {
						if err := cf.PredictInto(xs[i%len(xs)], &p); err != nil {
							b.Fatal(err)
						}
					}
				})
			t.Logf("%s %s: pointer %v ns/op, compiled %v ns/op, speedup %.2fx",
				shape.name, name, pointerNs, compiledNs, ratio)
			if ratio < shape.want {
				t.Errorf("%s %s: compiled evaluator is only %.2fx faster than pointer (pointer %dns, compiled %dns), want >= %.1fx",
					shape.name, name, ratio, pointerNs, compiledNs, shape.want)
			}
		}
	}
}

// TestBatchKernelSpeedup keeps the lockstep batch kernel from rotting: on
// the paper's bundle, 128 never-repeated vectors through PredictBatch must
// cost at most 1/1.4 per vector of the same vectors through PredictInto one
// at a time. (Not on the fixture: its four shallow trees cost less to walk
// than a batch costs to set up, and the kernel reads 0.9x there.)
func TestBatchKernelSpeedup(t *testing.T) {
	skipTimingGuard(t)
	b, err := bundle.Load(paperBundle)
	if err != nil {
		t.Fatalf("Load(%s): %v", paperBundle, err)
	}
	const vectors, sets, want = 128, 16, 1.4
	for name, c := range b.Collectives {
		cf, xs := c.Compiled(), paperVectors(t, c, sets*vectors)
		out := make([]forest.Prediction, vectors)
		ratio, singleNs, batchNs := bestSpeedup(want,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for v, x := range xs[i%sets*vectors:][:vectors] {
						if err := cf.PredictInto(x, &out[v]); err != nil {
							b.Fatal(err)
						}
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := cf.PredictBatch(xs[i%sets*vectors:][:vectors], out); err != nil {
						b.Fatal(err)
					}
				}
			})
		t.Logf("%s: %d vectors one by one %v ns, batched %v ns, speedup %.2fx",
			name, vectors, singleNs, batchNs, ratio)
		if ratio < want {
			t.Errorf("%s: batch kernel is only %.2fx faster per vector than PredictInto (%dns vs %dns for %d vectors), want >= %.1fx",
				name, ratio, singleNs, batchNs, vectors, want)
		}
	}
}
