package compiled_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
)

// fuzzForest derives a small, valid random forest from the fuzz inputs:
// shape bytes pick the geometry, seed drives every structural choice. The
// generator appends parents before children (like pkg/synth), so the forest
// always passes Validate and the fuzzer explores evaluator behavior, not
// input rejection.
func fuzzForest(seed int64, shape []byte) (*forest.Forest, int) {
	at := func(i int, mod, min int) int {
		if i < len(shape) {
			return min + int(shape[i])%mod
		}
		return min
	}
	trees := at(0, 8, 1)
	depth := at(1, 6, 1)
	features := at(2, 12, 1)
	classes := at(3, 6, 2)

	rng := rand.New(rand.NewSource(seed))
	f := &forest.Forest{NClasses: classes, Trees: make([]forest.Tree, trees)}
	for t := range f.Trees {
		var nodes []forest.Node
		var build func(d int) int
		build = func(d int) int {
			idx := len(nodes)
			nodes = append(nodes, forest.Node{})
			if d <= 0 || rng.Float64() < 0.2 {
				dist := make([]float64, classes)
				for i := range dist {
					dist[i] = rng.Float64()
				}
				nodes[idx] = forest.Node{F: -1, D: dist}
				return idx
			}
			feat := rng.Intn(features)
			thresh := rng.NormFloat64() * 16
			l := build(d - 1)
			r := build(d - 1)
			nodes[idx] = forest.Node{F: feat, T: thresh, L: l, R: r}
			return idx
		}
		build(depth)
		f.Trees[t] = forest.Tree{Nodes: nodes}
	}
	return f, features
}

// fuzzVector decodes vecBytes into a feature vector of length n: 8-byte
// chunks become raw float64 bits (so NaN, ±Inf, subnormals, and negative
// zero all occur), and any shortfall is filled deterministically from seed.
func fuzzVector(seed int64, vecBytes []byte, n int) []float64 {
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	for i := range x {
		if (i+1)*8 <= len(vecBytes) {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(vecBytes[i*8:]))
		} else {
			x[i] = rng.NormFloat64() * 32
		}
	}
	return x
}

// FuzzCompiledVsPointer is the differential harness pinning the compiled
// evaluator to the pointer walk: for every generated forest and feature
// vector — including NaN/Inf payloads smuggled in through raw float bits —
// the class, every probability, and every vote must be bit-identical across
// the single compiled path, the batch path, and a binary
// marshal/unmarshal round trip. Seed corpus lives in
// testdata/fuzz/FuzzCompiledVsPointer (regenerate with `go test
// -run=FuzzCompiledVsPointer -fuzz=FuzzCompiledVsPointer -fuzztime=30s
// ./pkg/forest/compiled`).
func FuzzCompiledVsPointer(f *testing.F) {
	f.Add(int64(1), []byte{}, []byte{})
	f.Add(int64(2), []byte{7, 5, 11, 5}, []byte{})
	f.Add(int64(3), []byte{1, 1, 1, 1}, make([]byte, 16))
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	inf := binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.Inf(-1)))
	f.Add(int64(4), []byte{4, 3, 2, 3}, inf)
	f.Add(int64(5), []byte{255, 255, 255, 255}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, seed int64, shape, vecBytes []byte) {
		pf, features := fuzzForest(seed, shape)
		cf, err := compiled.Compile(pf, features)
		if err != nil {
			t.Fatalf("Compile rejected a generator-valid forest: %v", err)
		}
		x := fuzzVector(seed, vecBytes, features)

		want, err := pf.Predict(x)
		if err != nil {
			t.Fatalf("pointer Predict: %v", err)
		}
		got, err := cf.Predict(x)
		if err != nil {
			t.Fatalf("compiled Predict: %v", err)
		}
		samePrediction(t, "compiled", got, want)

		// The vote margin feeds confidence telemetry, so it must also be
		// bit-identical across evaluators — a margin computed from compiled
		// probs equals one computed from pointer probs, bit for bit.
		if mg, mw := forest.Margin(got.Probs), forest.Margin(want.Probs); math.Float64bits(mg) != math.Float64bits(mw) {
			t.Fatalf("margin: compiled %x != pointer %x (%v vs %v)",
				math.Float64bits(mg), math.Float64bits(mw), mg, mw)
		}

		out := make([]forest.Prediction, 1)
		if err := cf.PredictBatch([][]float64{x}, out); err != nil {
			t.Fatalf("PredictBatch: %v", err)
		}
		samePrediction(t, "batch", out[0], want)

		blob, err := cf.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		cf2, err := compiled.DecodeBinary(blob)
		if err != nil {
			t.Fatalf("DecodeBinary rejected its own encoding: %v", err)
		}
		got2, err := cf2.Predict(x)
		if err != nil {
			t.Fatalf("decoded Predict: %v", err)
		}
		samePrediction(t, "binary-roundtrip", got2, want)
	})
}

// fuzzSpecials are the float values a split comparison can get wrong.
var fuzzSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// fuzzLaneForest derives a valid forest whose trees differ as much as one
// lockstep group can take: per tree the seed picks a stump (a single leaf),
// a bushy tree, or a chain that is one step deep on one side and up to
// forty on the other, so the lanes of a group arrive at very different
// times. Zero features forces every tree to a stump — the zero-feature
// forest. Thresholds are drawn from the specials as often as from a normal
// distribution.
func fuzzLaneForest(seed int64, shape []byte) (*forest.Forest, int) {
	at := func(i int, mod, min int) int {
		if i < len(shape) {
			return min + int(shape[i])%mod
		}
		return min
	}
	trees := at(0, 12, 1)
	depth := at(1, 9, 0)
	features := at(2, 10, 0)
	classes := at(3, 8, 2)

	rng := rand.New(rand.NewSource(seed))
	leaf := func() forest.Node {
		dist := make([]float64, classes)
		for i := range dist {
			dist[i] = rng.Float64()
		}
		return forest.Node{F: -1, D: dist}
	}
	threshold := func() float64 {
		if rng.Intn(2) == 0 {
			return fuzzSpecials[rng.Intn(len(fuzzSpecials))]
		}
		return rng.NormFloat64() * 16
	}
	f := &forest.Forest{NClasses: classes, Trees: make([]forest.Tree, trees)}
	for t := range f.Trees {
		var nodes []forest.Node
		kind := rng.Intn(4)
		if features == 0 || depth == 0 {
			kind = 0
		}
		switch kind {
		case 0: // stump
			nodes = []forest.Node{leaf()}
		case 1: // bushy
			var build func(d int) int
			build = func(d int) int {
				idx := len(nodes)
				nodes = append(nodes, forest.Node{})
				if d <= 0 || rng.Float64() < 0.15 {
					nodes[idx] = leaf()
					return idx
				}
				n := forest.Node{F: rng.Intn(features), T: threshold()}
				n.L = build(d - 1)
				n.R = build(d - 1)
				nodes[idx] = n
				return idx
			}
			build(depth)
		default: // chain: a leaf on one side, the rest of the chain on the other
			for links := 1 + rng.Intn(5*depth); links > 0; links-- {
				idx := len(nodes)
				n := forest.Node{F: rng.Intn(features), T: threshold(), L: idx + 1, R: idx + 2}
				if kind == 3 {
					n.L, n.R = n.R, n.L
				}
				nodes = append(nodes, n, leaf())
			}
			nodes = append(nodes, leaf())
		}
		f.Trees[t] = forest.Tree{Nodes: nodes}
	}
	return f, features
}

// FuzzPredictBatchVsPointer is the differential harness for the lockstep
// batch kernel: batches of 1–40 vectors — so whole lane groups, short last
// groups and single vectors all occur — over forests of very unequal trees,
// with NaN, ±Inf, −0 and subnormals in vectors and thresholds alike. Every
// slot must equal forest.Forest.Predict on its vector, also when the output
// slots still hold another batch's results. Seed corpus lives in
// testdata/fuzz/FuzzPredictBatchVsPointer.
func FuzzPredictBatchVsPointer(f *testing.F) {
	f.Add(int64(1), []byte{}, []byte{}, uint8(0))
	f.Add(int64(2), []byte{11, 8, 9, 7}, []byte{}, uint8(39))
	f.Add(int64(3), []byte{5, 0, 4, 2}, []byte{}, uint8(8))  // stumps only
	f.Add(int64(4), []byte{7, 6, 0, 3}, []byte{}, uint8(16)) // the zero-feature forest
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	negZero := binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.Copysign(0, -1)))
	f.Add(int64(5), []byte{11, 8, 1, 0}, binary.LittleEndian.AppendUint64(negZero, math.Float64bits(math.Inf(-1))), uint8(9))

	f.Fuzz(func(t *testing.T, seed int64, shape, vecBytes []byte, count uint8) {
		pf, features := fuzzLaneForest(seed, shape)
		cf, err := compiled.Compile(pf, features)
		if err != nil {
			t.Fatalf("Compile rejected a generator-valid forest: %v", err)
		}
		xs := make([][]float64, 1+int(count)%40)
		rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
		for v := range xs {
			// Each vector reads the fuzz bytes from its own offset, then
			// falls back to the generator, which deals specials too.
			x := fuzzVector(seed+int64(v), vecBytes[min(len(vecBytes), 8*v):], features)
			for i := range x {
				if rng.Intn(6) == 0 {
					x[i] = fuzzSpecials[rng.Intn(len(fuzzSpecials))]
				}
			}
			xs[v] = x
		}

		out := make([]forest.Prediction, len(xs))
		reversed := make([][]float64, len(xs))
		for v := range xs {
			reversed[v] = xs[len(xs)-1-v]
		}
		if err := cf.PredictBatch(reversed, out); err != nil { // leaves stale results in every slot
			t.Fatalf("PredictBatch: %v", err)
		}
		if err := cf.PredictBatch(xs, out); err != nil {
			t.Fatalf("PredictBatch: %v", err)
		}
		for v, x := range xs {
			want, err := pf.Predict(x)
			if err != nil {
				t.Fatalf("pointer Predict: %v", err)
			}
			if !reflect.DeepEqual(out[v], want) {
				t.Fatalf("vector %d of %d (%v): batch %+v, pointer %+v", v, len(xs), x, out[v], want)
			}
		}
	})
}

// FuzzDecodeBinary throws arbitrary bytes at the compiled-forest binary
// decoder: it must reject or fully validate, never panic, and anything it
// accepts must survive evaluation and re-encode.
func FuzzDecodeBinary(f *testing.F) {
	valid, _ := mustCompiledFixture().MarshalBinary()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PMLC"))
	f.Add(valid[:len(valid)/2])
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-1] ^= 0xff
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := compiled.DecodeBinary(data) // must never panic
		if err != nil {
			return
		}
		x := make([]float64, cf.NumFeatures())
		if _, err := cf.Predict(x); err != nil {
			t.Fatalf("accepted forest failed to evaluate: %v", err)
		}
		if _, err := cf.MarshalBinary(); err != nil {
			t.Fatalf("accepted forest failed to re-encode: %v", err)
		}
	})
}

// mustCompiledFixture compiles a small deterministic forest for fuzz seeds.
func mustCompiledFixture() *compiled.Forest {
	pf, features := fuzzForest(1, []byte{3, 3, 3, 3})
	cf, err := compiled.Compile(pf, features)
	if err != nil {
		panic(err)
	}
	return cf
}
