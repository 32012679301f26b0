package train

import (
	"fmt"
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// This file keeps the original sort-per-node CART learner as the answer
// key for the presorted one in cart.go: refTrainTree sorts every node's
// samples afresh for every candidate feature and partitions by copying
// index slices. It is slow and obviously correct; FuzzTrainTreeVsReference
// holds the fast learner to it node for node and bit for bit.

// refBuilder grows one tree the original way. Nodes append
// parent-before-children, so child indices always point forward.
type refBuilder struct {
	cfg cartConfig
	x   [][]float64 // x[sample][feature]
	y   []int
	// importance accumulates weighted Gini decrease per (full-space)
	// feature column as splits are chosen.
	importance []float64
	nTotal     float64
	nodes      []forest.Node
	// scratch buffers reused across splits to keep allocation flat.
	leftCounts  []float64
	rightCounts []float64
}

// counts tallies class membership for the given sample indices.
func (b *refBuilder) counts(idx []int) []float64 {
	c := make([]float64, b.cfg.nClasses)
	for _, i := range idx {
		c[b.y[i]]++
	}
	return c
}

// bestSplit searches the candidate features for the split with the
// largest impurity decrease. Ties break toward the lower feature index,
// then the lower threshold, so tree growth is fully deterministic.
func (b *refBuilder) bestSplit(idx []int, parentCounts []float64) split {
	n := float64(len(idx))
	parentGini := gini(parentCounts, n)
	best := split{}
	order := make([]int, len(idx))
	for _, f := range b.cfg.features {
		copy(order, idx)
		// Sort samples by (value, index): the index tiebreak keeps the
		// scan order — and therefore midpoint thresholds — deterministic.
		sort.Slice(order, func(a, c int) bool {
			va, vc := b.x[order[a]][f], b.x[order[c]][f]
			if va != vc {
				return va < vc
			}
			return order[a] < order[c]
		})
		for i := range b.leftCounts {
			b.leftCounts[i] = 0
			b.rightCounts[i] = parentCounts[i]
		}
		for i := 0; i < len(order)-1; i++ {
			cls := b.y[order[i]]
			b.leftCounts[cls]++
			b.rightCounts[cls]--
			v, next := b.x[order[i]][f], b.x[order[i+1]][f]
			if v == next {
				continue // can't cut between equal values
			}
			nl, nr := float64(i+1), n-float64(i+1)
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

// build grows the subtree over idx and returns its node index.
func (b *refBuilder) build(idx []int, depth int) int {
	at := len(b.nodes)
	b.nodes = append(b.nodes, forest.Node{})
	counts := b.counts(idx)
	n := float64(len(idx))

	pure := false
	for _, c := range counts {
		if c == n {
			pure = true
			break
		}
	}
	if pure || depth >= b.cfg.maxDepth || len(idx) < b.cfg.minSamplesSplit {
		b.nodes[at] = forest.Node{F: -1, D: leafDist(counts, n)}
		return at
	}
	sp := b.bestSplit(idx, counts)
	if !sp.ok {
		b.nodes[at] = forest.Node{F: -1, D: leafDist(counts, n)}
		return at
	}
	b.importance[sp.feature] += (n / b.nTotal) * sp.gain

	left := make([]int, 0, len(idx))
	right := make([]int, 0, len(idx))
	for _, i := range idx {
		if b.x[i][sp.feature] <= sp.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.nodes[at] = forest.Node{F: sp.feature, T: sp.threshold, L: l, R: r}
	return at
}

// refTrainTree grows one CART tree on the samples in idx the original way
// and returns the tree plus the per-feature importance it accumulated.
func refTrainTree(x [][]float64, y []int, idx []int, cfg cartConfig) (forest.Tree, []float64, error) {
	if len(idx) == 0 {
		return forest.Tree{}, nil, fmt.Errorf("train: tree has no samples")
	}
	nFeatures := len(x[0])
	b := &refBuilder{
		cfg:         cfg,
		x:           x,
		y:           y,
		importance:  make([]float64, nFeatures),
		nTotal:      float64(len(idx)),
		leftCounts:  make([]float64, cfg.nClasses),
		rightCounts: make([]float64, cfg.nClasses),
	}
	b.build(idx, 0)
	return forest.Tree{Nodes: b.nodes}, b.importance, nil
}
