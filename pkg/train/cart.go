// Package train grows the models pkg/bundle serves: a CART decision-tree
// learner (Gini impurity, depth and min-samples limits) and a bagged
// random-forest trainer (bootstrap sampling, per-tree feature
// subsampling, seeded determinism) with out-of-bag accuracy and
// per-feature importance. Trained forests export to the exact on-disk
// bundle format, so the offline train → publish → hot-swap loop runs
// entirely inside this repo.
//
// The split search is presorted. TrainForest sorts each feature column
// once by (value, sample index); each tree filters those orders down to
// its in-bag samples, keeping a sample's bootstrap multiplicity as an
// integer weight; a node is a [lo, hi) range over the per-feature lists, so
// its best split is one linear scan per feature, and a split stably
// partitions every list instead of sorting anything again. The trees are
// byte-identical to those of sorting each node's samples afresh for every
// feature (reference_test.go keeps that learner as the answer key): class
// counts stay exact integers, features and thresholds are visited in
// ascending order, a tie keeps the earlier split, no cut falls between
// equal values, and the threshold is the midpoint of the two values it
// separates.
package train

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// cartConfig bounds one tree's growth.
type cartConfig struct {
	maxDepth        int
	minSamplesSplit int
	minSamplesLeaf  int
	nClasses        int
	// features are the column indices this tree may split on (the
	// per-tree feature subsample).
	features []int
}

// presorted is a training matrix prepared once per forest: column-major
// values plus, per column, every sample index sorted by (value, index).
// Trees only ever filter and partition these orders, never sort them.
type presorted struct {
	cols  [][]float64 // cols[feature][sample]
	order [][]int32   // order[feature]: samples by ascending (value, index)
}

// presort transposes x and sorts each column once. The (value, index)
// order is total, so the unstable sort still has exactly one result, and
// it treats -0 and +0 as equal values, as the split scan does.
func presort(x [][]float64) *presorted {
	nFeatures := len(x[0])
	p := &presorted{cols: make([][]float64, nFeatures), order: make([][]int32, nFeatures)}
	for f := range p.cols {
		col := make([]float64, len(x))
		order := make([]int32, len(x))
		for i, row := range x {
			col[i] = row[f]
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			switch va, vb := col[a], col[b]; {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a - b)
		})
		p.cols[f], p.order[f] = col, order
	}
	return p
}

// cartBuilder grows one tree. Each in-bag sample appears once in every
// per-feature list with its bootstrap multiplicity as an integer weight, so
// class counts stay exact integers. A node is a [lo, hi) range that is the
// same sample set in every list; splitting a node stably partitions each
// list's range into left then right, which keeps every range sorted.
// Nodes append parent-before-children, so child indices always point
// forward — the invariant forest.Validate enforces.
type cartBuilder struct {
	cfg    cartConfig
	cols   [][]float64
	y      []int
	weight []int32   // bootstrap multiplicity per sample
	lists  [][]int32 // lists[k]: in-bag samples sorted by cols[cfg.features[k]]
	// importance accumulates weighted Gini decrease per (full-space)
	// feature column as splits are chosen.
	importance []float64
	nTotal     float64
	nodes      []forest.Node
	// scratch buffers reused across nodes to keep allocation flat.
	counts      []float64
	leftCounts  []float64
	rightCounts []float64
	goLeft      []bool
	spill       []int32
}

// gini computes the Gini impurity of a class-count vector with n total
// samples.
func gini(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// split is a candidate decision: route x[feature] <= threshold left.
type split struct {
	feature   int
	threshold float64
	gain      float64
	ok        bool
}

// bestSplit searches the candidate features for the split of the node
// [lo, hi) with the largest impurity decrease, one linear scan per feature
// over its presorted list. Ties break toward the lower feature index, then
// the lower threshold, so tree growth is fully deterministic.
func (b *cartBuilder) bestSplit(lo, hi int, parentCounts []float64, n float64) split {
	parentGini := gini(parentCounts, n)
	best := split{}
	for k, f := range b.cfg.features {
		order, col := b.lists[k][lo:hi], b.cols[f]
		for i := range b.leftCounts {
			b.leftCounts[i] = 0
			b.rightCounts[i] = parentCounts[i]
		}
		nl := 0.0
		for i := 0; i < len(order)-1; i++ {
			s := order[i]
			w := float64(b.weight[s])
			cls := b.y[s]
			b.leftCounts[cls] += w
			b.rightCounts[cls] -= w
			nl += w
			v, next := col[s], col[order[i+1]]
			if v == next {
				continue // can't cut between equal values
			}
			nr := n - nl
			if int(nl) < b.cfg.minSamplesLeaf || int(nr) < b.cfg.minSamplesLeaf {
				continue
			}
			gain := parentGini - (nl*gini(b.leftCounts, nl)+nr*gini(b.rightCounts, nr))/n
			if gain <= 1e-12 {
				continue
			}
			// Strictly-greater keeps the first-found split on ties; with
			// features visited ascending and thresholds ascending, that
			// makes the chosen split fully deterministic.
			if gain > best.gain {
				best = split{feature: f, threshold: v + (next-v)/2, gain: gain, ok: true}
			}
		}
	}
	return best
}

// leafDist converts class counts into the leaf probability distribution
// the serving forest stores.
func leafDist(counts []float64, n float64) []float64 {
	d := make([]float64, len(counts))
	for i, c := range counts {
		d[i] = c / n
	}
	return d
}

// partition stably moves the samples of list that go left to its front,
// the rest behind them, and returns how many went left.
func (b *cartBuilder) partition(list []int32) int {
	l, r := 0, 0
	for _, s := range list {
		if b.goLeft[s] {
			list[l] = s
			l++
		} else {
			b.spill[r] = s
			r++
		}
	}
	copy(list[l:], b.spill[:r])
	return l
}

// build grows the subtree over the node [lo, hi) and returns its node
// index.
func (b *cartBuilder) build(lo, hi, depth int) int {
	at := len(b.nodes)
	b.nodes = append(b.nodes, forest.Node{})
	counts := b.counts
	clear(counts)
	total := 0
	for _, s := range b.lists[0][lo:hi] {
		counts[b.y[s]] += float64(b.weight[s])
		total += int(b.weight[s])
	}
	n := float64(total)

	pure := false
	for _, c := range counts {
		if c == n {
			pure = true
			break
		}
	}
	if pure || depth >= b.cfg.maxDepth || total < b.cfg.minSamplesSplit {
		b.nodes[at] = forest.Node{F: -1, D: leafDist(counts, n)}
		return at
	}
	sp := b.bestSplit(lo, hi, counts, n)
	if !sp.ok {
		b.nodes[at] = forest.Node{F: -1, D: leafDist(counts, n)}
		return at
	}
	b.importance[sp.feature] += (n / b.nTotal) * sp.gain

	col := b.cols[sp.feature]
	for _, s := range b.lists[0][lo:hi] {
		b.goLeft[s] = col[s] <= sp.threshold
	}
	mid := lo
	for _, list := range b.lists {
		mid = lo + b.partition(list[lo:hi])
	}
	l := b.build(lo, mid, depth+1)
	r := b.build(mid, hi, depth+1)
	b.nodes[at] = forest.Node{F: sp.feature, T: sp.threshold, L: l, R: r}
	return at
}

// trainTree grows one CART tree on the bootstrap sample idx (sample
// indices, repeats allowed) and returns the tree plus the per-feature
// importance it accumulated.
func trainTree(p *presorted, y []int, idx []int, cfg cartConfig) (forest.Tree, []float64, error) {
	if len(idx) == 0 {
		return forest.Tree{}, nil, fmt.Errorf("train: tree has no samples")
	}
	weight := make([]int32, len(y))
	inBag := 0
	for _, s := range idx {
		if weight[s] == 0 {
			inBag++
		}
		weight[s]++
	}
	lists := make([][]int32, len(cfg.features))
	for k, f := range cfg.features {
		list := make([]int32, 0, inBag)
		for _, s := range p.order[f] {
			if weight[s] > 0 {
				list = append(list, s)
			}
		}
		lists[k] = list
	}
	b := &cartBuilder{
		cfg:         cfg,
		cols:        p.cols,
		y:           y,
		weight:      weight,
		lists:       lists,
		importance:  make([]float64, len(p.cols)),
		nTotal:      float64(len(idx)),
		counts:      make([]float64, cfg.nClasses),
		leftCounts:  make([]float64, cfg.nClasses),
		rightCounts: make([]float64, cfg.nClasses),
		goLeft:      make([]bool, len(y)),
		spill:       make([]int32, inBag),
	}
	b.build(0, inBag, 0)
	return forest.Tree{Nodes: b.nodes}, b.importance, nil
}

// sampleFeatures draws k distinct feature columns with a seeded
// generator, returned sorted for deterministic split search order.
func sampleFeatures(rng *rand.Rand, nFeatures, k int) []int {
	if k >= nFeatures {
		k = nFeatures
	}
	perm := rng.Perm(nFeatures)[:k]
	sort.Ints(perm)
	return perm
}
