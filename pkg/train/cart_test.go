package train

import (
	"math"
	"math/rand"
	"testing"
)

// treeAlphabet is the value pool of the differential tests. It is tiny so
// that ties, duplicate rows and constant columns are common, and it holds
// both zeros (equal values, different bits), a subnormal and the extremes,
// whose midpoint overflows to +Inf.
var treeAlphabet = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// treeCase decodes one tree-growing problem: up to 64 rows and 6 features
// with values from treeAlphabet, 1–5 classes, the growth limits, a sorted
// feature subsample and a bootstrap sample. data drives the shape and the
// cells, seed the subsample and the bootstrap.
func treeCase(seed int64, data []byte) (x [][]float64, y []int, idx []int, cfg cartConfig) {
	at := 0
	next := func() int {
		if at >= len(data) {
			at++
			return at * 7 // deterministic filler once data runs out
		}
		at++
		return int(data[at-1])
	}
	rows, features := 1+next()%64, 1+next()%6
	cfg = cartConfig{
		nClasses:        1 + next()%5,
		maxDepth:        1 + next()%8,
		minSamplesLeaf:  1 + next()%4,
		minSamplesSplit: 2 + next()%5,
	}
	alphabet := 1 + next()%len(treeAlphabet) // narrower alphabets tie more
	x = make([][]float64, rows)
	y = make([]int, rows)
	for i := range x {
		x[i] = make([]float64, features)
		for j := range x[i] {
			x[i][j] = treeAlphabet[next()%alphabet]
		}
		y[i] = next() % cfg.nClasses
	}

	rng := rand.New(rand.NewSource(seed))
	cfg.features = sampleFeatures(rng, features, 1+rng.Intn(features))
	switch rng.Intn(3) {
	case 0: // every sample once
		for i := range x {
			idx = append(idx, i)
		}
	case 1: // the forest's bootstrap: rows draws with replacement
		for range x {
			idx = append(idx, rng.Intn(rows))
		}
	default: // a bootstrap of any size, heavy on repeats
		for n := 1 + rng.Intn(2*rows); n > 0; n-- {
			idx = append(idx, rng.Intn(1+rows/2))
		}
	}
	return x, y, idx, cfg
}

// checkTreeVsReference grows the tree with the presorted learner and with
// the sort-per-node reference and requires the same nodes, bit for bit,
// and the same importances.
func checkTreeVsReference(t *testing.T, x [][]float64, y []int, idx []int, cfg cartConfig) {
	t.Helper()
	want, wantImp, err := refTrainTree(x, y, idx, cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, gotImp, err := trainTree(presort(x), y, idx, cfg)
	if err != nil {
		t.Fatalf("trainTree: %v", err)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%d nodes, reference grew %d (cfg %+v)", len(got.Nodes), len(want.Nodes), cfg)
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.F != w.F || g.L != w.L || g.R != w.R || math.Float64bits(g.T) != math.Float64bits(w.T) {
			t.Fatalf("node %d = {F:%d T:%v L:%d R:%d}, reference {F:%d T:%v L:%d R:%d}",
				i, g.F, g.T, g.L, g.R, w.F, w.T, w.L, w.R)
		}
		if len(g.D) != len(w.D) {
			t.Fatalf("node %d has %d leaf probabilities, reference %d", i, len(g.D), len(w.D))
		}
		for c := range g.D {
			if math.Float64bits(g.D[c]) != math.Float64bits(w.D[c]) {
				t.Fatalf("node %d D[%d] = %v, reference %v", i, c, g.D[c], w.D[c])
			}
		}
	}
	for f := range gotImp {
		if math.Float64bits(gotImp[f]) != math.Float64bits(wantImp[f]) {
			t.Fatalf("importance[%d] = %v, reference %v", f, gotImp[f], wantImp[f])
		}
	}
}

func FuzzTrainTreeVsReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{63, 5, 4, 7, 0, 4, 1})             // 64 rows, 6 features, one-value alphabet
	f.Add(int64(3), []byte{31, 2, 2, 3, 3, 0, 2, 0, 1, 1, 0}) // zeros of both signs, min leaf 4
	f.Add(int64(4), []byte{15, 1, 1, 7, 0, 5, 9, 8, 9, 7})    // extremes: the midpoint overflows
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		x, y, idx, cfg := treeCase(seed, data)
		checkTreeVsReference(t, x, y, idx, cfg)
	})
}

// TestTrainTreeVsReference is the seeded, always-run slice of
// FuzzTrainTreeVsReference.
func TestTrainTreeVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		x, y, idx, cfg := treeCase(rng.Int63(), data)
		checkTreeVsReference(t, x, y, idx, cfg)
	}
}
