package train

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// Config tunes the random-forest trainer. The zero value takes the
// documented defaults, so Config{} is a usable configuration; any other
// out-of-range value is an error (see Validate), never silently replaced.
type Config struct {
	// Trees in the ensemble (default 48).
	Trees int
	// MaxDepth bounds each tree (default 14).
	MaxDepth int
	// MinSamplesSplit is the smallest node the learner will try to split
	// (default 2).
	MinSamplesSplit int
	// MinSamplesLeaf is the smallest child a split may create (default 1).
	MinSamplesLeaf int
	// FeatureFrac is the per-tree feature subsample fraction in (0, 1]
	// (default 0.8; at least one feature is always kept).
	FeatureFrac float64
	// Seed drives bootstrap and feature sampling. Equal seeds and inputs
	// yield byte-identical forests.
	Seed int64
	// Workers bounds concurrent tree construction (default GOMAXPROCS).
	// Parallelism never affects the result: every tree derives its own
	// generator from Seed and its index.
	Workers int
}

// Validate reports every value TrainForest would otherwise have to rewrite,
// one joined error naming each bad field and, where it has one, its
// pmlmpi-train flag. Zero keeps meaning "default"; NaN is never valid.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, field, flag string, v any, want string) {
		if ok {
			return
		}
		if flag != "" {
			field += " (-" + flag + ")"
		}
		errs = append(errs, fmt.Errorf("%s = %v: want %s", field, v, want))
	}
	check(c.Trees >= 0, "Trees", "trees", c.Trees, "a count >= 1 (0 = default 48)")
	check(c.MaxDepth >= 0, "MaxDepth", "depth", c.MaxDepth, "a depth >= 1 (0 = default 14)")
	check(c.MinSamplesSplit == 0 || c.MinSamplesSplit >= 2, "MinSamplesSplit", "", c.MinSamplesSplit, "a count >= 2 (0 = default 2)")
	check(c.MinSamplesLeaf >= 0, "MinSamplesLeaf", "min-samples-leaf", c.MinSamplesLeaf, "a count >= 1 (0 = default 1)")
	check(c.FeatureFrac >= 0 && c.FeatureFrac <= 1, "FeatureFrac", "feature-frac", c.FeatureFrac, "a fraction in (0,1] (0 = default 0.8)")
	check(c.Workers >= 0, "Workers", "", c.Workers, "a count >= 1 (0 = GOMAXPROCS)")
	return errors.Join(errs...)
}

// withDefaults fills the zero fields of a valid Config.
func (c Config) withDefaults() Config {
	if c.Trees == 0 {
		c.Trees = 48
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 14
	}
	if c.MinSamplesSplit == 0 {
		c.MinSamplesSplit = 2
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 1
	}
	if c.FeatureFrac == 0 {
		c.FeatureFrac = 0.8
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// treeSeedStride spreads consecutive tree indices across the seed space
// (the 63-bit golden-ratio multiplier; overflow wraps, which is fine — only
// distinctness matters).
const treeSeedStride int64 = 0x1E3779B97F4A7C15

// Result is one trained forest plus its quality diagnostics.
type Result struct {
	Forest *forest.Forest
	// OOBAccuracy is the out-of-bag accuracy: each sample is scored only
	// by trees whose bootstrap excluded it. NaN-free; 0 when no sample
	// was ever out of bag (tiny inputs).
	OOBAccuracy float64
	// Importance is the normalized mean-decrease-in-impurity per feature
	// column (sums to 1 when any split was made).
	Importance []float64
}

// TrainForest fits a bagged random forest to the sample matrix x (row per
// sample, column per feature) and labels y in [0, nClasses). Deterministic
// for a fixed Config.Seed regardless of Config.Workers.
func TrainForest(x [][]float64, y []int, nClasses int, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	cfg = cfg.withDefaults()
	if len(x) == 0 {
		return nil, fmt.Errorf("train: no samples")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("train: %d samples but %d labels", len(x), len(y))
	}
	if nClasses <= 0 {
		return nil, fmt.Errorf("train: nClasses must be positive, got %d", nClasses)
	}
	nFeatures := len(x[0])
	if nFeatures == 0 {
		return nil, fmt.Errorf("train: samples have no features")
	}
	for i, row := range x {
		if len(row) != nFeatures {
			return nil, fmt.Errorf("train: sample %d has %d features, want %d", i, len(row), nFeatures)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("train: sample %d feature %d is non-finite (%v)", i, j, v)
			}
		}
	}
	for i, cls := range y {
		if cls < 0 || cls >= nClasses {
			return nil, fmt.Errorf("train: label %d of sample %d outside [0,%d)", cls, i, nClasses)
		}
	}

	kFeatures := int(math.Ceil(cfg.FeatureFrac * float64(nFeatures)))
	if kFeatures < 1 {
		kFeatures = 1
	}

	sorted := presort(x)
	type treeOut struct {
		tree       forest.Tree
		importance []float64
		oob        []int // sample indices out of this tree's bootstrap
		err        error
	}
	outs := make([]treeOut, cfg.Trees)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for t := 0; t < cfg.Trees; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer func() { <-sem; wg.Done() }()
			// Per-tree generator: the golden-ratio odd constant spreads
			// consecutive tree indices across the seed space.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*treeSeedStride))
			inBag := make([]bool, len(x))
			idx := make([]int, len(x))
			for i := range idx {
				s := rng.Intn(len(x))
				idx[i] = s
				inBag[s] = true
			}
			feats := sampleFeatures(rng, nFeatures, kFeatures)
			tree, imp, err := trainTree(sorted, y, idx, cartConfig{
				maxDepth:        cfg.MaxDepth,
				minSamplesSplit: cfg.MinSamplesSplit,
				minSamplesLeaf:  cfg.MinSamplesLeaf,
				nClasses:        nClasses,
				features:        feats,
			})
			if err != nil {
				outs[t] = treeOut{err: err}
				return
			}
			var oob []int
			for i, in := range inBag {
				if !in {
					oob = append(oob, i)
				}
			}
			outs[t] = treeOut{tree: tree, importance: imp, oob: oob}
		}(t)
	}
	wg.Wait()

	f := &forest.Forest{Trees: make([]forest.Tree, cfg.Trees), NClasses: nClasses}
	importance := make([]float64, nFeatures)
	oobVotes := make([][]float64, len(x))
	for t, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("train: tree %d: %w", t, out.err)
		}
		f.Trees[t] = out.tree
		for j, v := range out.importance {
			importance[j] += v
		}
		for _, i := range out.oob {
			leaf, err := treeLeaf(&f.Trees[t], x[i])
			if err != nil {
				return nil, fmt.Errorf("train: oob eval tree %d: %w", t, err)
			}
			if oobVotes[i] == nil {
				oobVotes[i] = make([]float64, nClasses)
			}
			for c, p := range leaf.D {
				oobVotes[i][c] += p
			}
		}
	}

	covered, correct := 0, 0
	for i, votes := range oobVotes {
		if votes == nil {
			continue
		}
		covered++
		if argmax(votes) == y[i] {
			correct++
		}
	}
	oobAcc := 0.0
	if covered > 0 {
		oobAcc = float64(correct) / float64(covered)
	}

	total := 0.0
	for _, v := range importance {
		total += v
	}
	if total > 0 {
		for j := range importance {
			importance[j] /= total
		}
	}
	f.Importance = importance
	f.OOB = oobAcc

	if err := f.Validate(nFeatures); err != nil {
		return nil, fmt.Errorf("train: produced invalid forest: %w", err)
	}
	return &Result{Forest: f, OOBAccuracy: oobAcc, Importance: importance}, nil
}

// treeLeaf walks one tree to its leaf for x.
func treeLeaf(t *forest.Tree, x []float64) (*forest.Node, error) {
	i := 0
	for steps := 0; steps <= len(t.Nodes); steps++ {
		n := &t.Nodes[i]
		if n.Leaf() {
			return n, nil
		}
		if x[n.F] <= n.T {
			i = n.L
		} else {
			i = n.R
		}
	}
	return nil, fmt.Errorf("tree walk exceeded %d steps", len(t.Nodes))
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
