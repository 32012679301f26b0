// Package compiled is the hot-path forest evaluator: it flattens a
// validated pointer-linked forest.Forest into one contiguous node arena
// compiled once at bundle load time, then evaluates with cache-line-friendly
// descent and no per-call error checking (structural validity is proven at
// compile time, so the descent loop cannot go out of bounds or cycle).
//
// Each tree is laid out in preorder: a node's left child is the very next
// arena slot, so only the right child needs an explicit distance and a
// left-leaning descent reads memory sequentially. In memory each node packs
// the split threshold and a meta word (the split feature's byte offset, the
// byte distance to the right child) into 16 bytes, so a descent step costs
// one cache line per node — a fraction of the pointer representation's
// 56-byte nodes. The wire format (binary.go) stays plain structure-of-arrays:
// featureIdx []uint16, threshold []float64, childOffset []int32, plus leaf
// payloads.
//
// The batch walk (PredictBatch) descends branch-free. Its step (step, in
// batch.go) turns x <= t into a 0/1 flag and lets the flag mask the right
// child's distance in or out of the next position — arithmetic, not a jump.
// Written as "if !(x <= t) { next = right }" the compiler keeps UCOMISD +
// conditional jump (it will not turn a select that feeds a load address into
// a CMOV): about a thousand data-dependent jumps per decision on the paper's
// forests (60 and 100 trees, 8 to 10 levels deep), on inputs that by
// construction are new to the process — the forest only runs on a
// decision-cache miss — so the predictor has little to go on, and a CPU
// profile of the serving binary under batches had the walk as its largest
// single cost. Branch-free, a chain is bound by the latency of its
// load-compare-select round trip instead, and lockstep hides that: eight
// vectors go down each tree together (walkLanes), and parked leaves let a
// finished chain idle in place so the loop needs no per-lane guard. The
// property is checked, not assumed: in
// `go build -gcflags=-S ./pkg/forest/compiled` every UCOMISD in walkLanes is
// followed by a SETcc, and the only conditional jump inside the loop is the
// all-parked exit.
//
// The single-vector walk (PredictInto, walkChunk) keeps the jump. One
// vector offers no lanes, only trees to interleave, and its callers replay
// vectors (benchmarks, the latency ladder, a tuner asking again), where the
// predictor is right and a predicted jump costs nothing: on the committed
// four-tree fixture replaying one vector the branchy walk reads 54-58 ns and
// the same walk through step, eight trees in lockstep, 66-70 ns. On vectors
// it has not seen the order flips (paper bundle, alltoall: 7.7 us branchy,
// 3.3 us branch-free), which is what the batch kernel is for.
//
// The compiled evaluator is bit-identical to forest.Forest.Predict: leaf
// distributions accumulate in the same tree and class order, votes use the
// same first-wins argmax, and the final mean uses the same division, so
// every float in the result carries the exact same bits. Two differential
// fuzz targets (single vectors, and batches that fill the lanes) and a
// golden prediction-table test pin that guarantee.
//
// A compiled Forest is immutable after Compile and therefore safe to share
// across goroutines and registry generations without synchronization.
package compiled

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// leafSentinel marks a leaf in the wire format's feature-index array.
const leafSentinel = math.MaxUint16

// maxFeatures bounds the feature count: a split's feature travels in
// featBits bits of the meta word as a byte offset (index*8), and on the
// wire as a uint16 below leafSentinel.
const maxFeatures = 1 << 15

// maxNodes bounds the node arena so every arena index fits comfortably in
// int32.
const maxNodes = 1 << 30

// node is one compiled tree node, 16 bytes that one load brings in: the
// split threshold, and a meta word made for the descent step. Its low
// featBits bits are the split feature's byte offset into a feature vector
// (index*8); the bits above are the signed byte distance from the node's
// left child — always the next arena slot — to its right child. Nothing in
// it needs shifting into place or subtracting from the current position
// before it can be used.
//
// A leaf is a *parked* node: its threshold is NaN, its feature offset 0 and
// its distance -nodeSize, so the unguarded descent step — go right unless
// x[feat] <= t — lands back on the leaf forever once a chain reaches it
// (NaN compares false, so it always goes "right", one slot back from the
// "left child"; feature 0 keeps the x read in bounds). That lets several
// chains descend in lockstep with no per-step "am I done?" branches: the
// loop just runs until all of them are parked, and since only a leaf has a
// negative distance, the meta word's sign bit is the leaf flag. The parked
// NaN also carries the leaf's payload in its mantissa (see packLeaf), so
// the node a chain stops on — already loaded — says where its class
// distribution lives: no second array, no second dependent load.
type node struct {
	t    float64
	meta uint64
}

const (
	nodeSize = 16
	featBits = 18 // maxFeatures byte offsets of 8
	featMask = 1<<featBits - 1
)

// packNode builds the internal node at arena index i: split on feat at t,
// right child at arena index right (the left child is i+1).
func packNode(i int32, feat uint16, right int32, t float64) node {
	dist := int64(right-i-1) * nodeSize
	return node{t: t, meta: uint64(dist)<<featBits | uint64(feat)*8}
}

// A parked leaf's threshold is a quiet NaN whose mantissa holds the leaf
// word: the leaf's premultiplied leafProbs offset in the low leafVoteShift
// bits (offsets stay below maxNodes = 1<<30) and its hard-vote class above
// (class counts stay at or below maxClasses = 1<<16), 47 of the 51 payload
// bits a quiet NaN has.
const (
	leafNaN       = 0x7ff8 << 48
	leafVoteShift = 31
	leafOffMask   = 1<<leafVoteShift - 1
	leafWordMask  = 1<<51 - 1
)

// maxClasses bounds the class count, in memory and on the wire.
const maxClasses = 1 << 16

// packLeaf builds a leaf's parked form: a NaN threshold carrying the leaf
// word (premultiplied leafProbs offset, hard-vote class), feature offset 0
// and the distance that steps back onto the leaf.
func packLeaf(probOff, vote int32) node {
	word := uint64(uint32(probOff)) | uint64(uint32(vote))<<leafVoteShift
	dist := int64(-nodeSize)
	return node{t: math.Float64frombits(leafNaN | word), meta: uint64(dist) << featBits}
}

// leafWord returns a parked leaf's payload; probOff and vote unpack it.
func (n node) leafWord() uint64 { return math.Float64bits(n.t) & leafWordMask }

func probOff(word uint64) int { return int(word & leafOffMask) }
func vote(word uint64) int    { return int(word >> leafVoteShift) }

// feat returns an internal node's split feature index.
func (n node) feat() uint16 { return uint16(n.meta & featMask / 8) }

// isLeaf reports whether the node is a (parked) leaf.
func (n node) isLeaf() bool { return int64(n.meta) < 0 }

// dist returns the signed byte distance from the left child's slot to the
// node the descent goes to when it does not go left.
func (n node) dist() int64 { return int64(n.meta) >> featBits }

// right returns the arena index of the right child of the internal node at
// arena index i.
func (n node) right(i int32) int32 { return i + 1 + int32(n.dist()/nodeSize) }

// Forest is a compiled ensemble. Trees live tree-after-tree in one packed
// node arena, each tree in preorder:
//
//   - an internal node splits on x[feat] <= t (left child at i+1, right
//     child at the packed distance from there);
//   - a leaf is parked (see node) and carries its payload in its NaN: the
//     leafProbs offset of its class distribution plus its precomputed
//     hard-vote class;
//   - leafProbs holds leaf k's class distribution at [k*nClasses,
//     (k+1)*nClasses) and leafVotes[k] is its hard-vote class (the wire
//     format's view of the same data).
//
// roots[t] is tree t's root index (trees are stored contiguously, so the
// roots double as tree boundaries).
type Forest struct {
	nClasses  int
	nFeatures int
	roots     []int32
	nodes     []node
	leafVotes []int32
	leafProbs []float64

	// onPredict mirrors forest.Forest's instrumentation hook: it receives
	// the wall time of every Predict/PredictInto call. Atomic so a
	// hot-swapped generation can be instrumented while serving.
	onPredict atomic.Pointer[func(seconds float64)]
}

// NClasses returns the number of algorithm classes the forest votes over.
func (cf *Forest) NClasses() int { return cf.nClasses }

// NumFeatures returns the feature-vector length the forest expects.
func (cf *Forest) NumFeatures() int { return cf.nFeatures }

// NumTrees returns the ensemble size.
func (cf *Forest) NumTrees() int { return len(cf.roots) }

// NumNodes returns the total node count across all trees.
func (cf *Forest) NumNodes() int { return len(cf.nodes) }

// NumLeaves returns the total leaf count across all trees.
func (cf *Forest) NumLeaves() int { return len(cf.leafVotes) }

// Instrument registers fn to receive the wall-clock seconds of every
// subsequent predict call, or removes the hook when fn is nil. Safe to call
// concurrently with evaluation.
func (cf *Forest) Instrument(fn func(seconds float64)) {
	if fn == nil {
		cf.onPredict.Store(nil)
		return
	}
	cf.onPredict.Store(&fn)
}

// Compile flattens f into packed arena form. It re-runs
// forest.Forest.Validate against numFeatures first, so a compiled forest is
// structurally sound by construction: every right-child offset points
// forward within its tree, every feature index is below numFeatures, and
// every leaf distribution has exactly NClasses entries. Each tree is re-laid
// in preorder; node order within the arena changes, but tree order and
// per-leaf class order — the two things float accumulation depends on — are
// preserved exactly, which is what keeps compiled evaluation bit-identical
// to the pointer walk.
func Compile(f *forest.Forest, numFeatures int) (*Forest, error) {
	if err := f.Validate(numFeatures); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if numFeatures >= maxFeatures {
		return nil, fmt.Errorf("compile: %d features overflow the %d-feature index space", numFeatures, maxFeatures-1)
	}
	if f.NClasses > maxClasses {
		return nil, fmt.Errorf("compile: %d classes exceed the bound %d", f.NClasses, maxClasses)
	}
	total, leaves := 0, 0
	for ti := range f.Trees {
		nodes := f.Trees[ti].Nodes
		total += len(nodes)
		for ni := range nodes {
			if nodes[ni].Leaf() {
				leaves++
			}
		}
	}
	if total > maxNodes {
		return nil, fmt.Errorf("compile: %d nodes exceed the arena bound %d", total, maxNodes)
	}
	if leaves*f.NClasses > maxNodes {
		return nil, fmt.Errorf("compile: %d leaf probabilities exceed the arena bound %d", leaves*f.NClasses, maxNodes)
	}

	cf := &Forest{
		nClasses:  f.NClasses,
		nFeatures: numFeatures,
		roots:     make([]int32, len(f.Trees)),
		nodes:     make([]node, 0, total),
	}
	for ti := range f.Trees {
		nodes := f.Trees[ti].Nodes
		cf.roots[ti] = int32(len(cf.nodes))
		// Preorder emission: parent, left subtree, then right subtree, so
		// the left child always lands at parent+1. Validate proved children
		// point forward, so the recursion terminates.
		var emit func(ni int)
		emit = func(ni int) {
			n := &nodes[ni]
			if n.Leaf() {
				// Precompute the hard vote with the pointer evaluator's
				// exact argmax rule (strict >, lowest index wins ties).
				best := 0
				for c, p := range n.D {
					if p > n.D[best] {
						best = c
					}
				}
				cf.nodes = append(cf.nodes, packLeaf(int32(len(cf.leafProbs)), int32(best)))
				cf.leafVotes = append(cf.leafVotes, int32(best))
				cf.leafProbs = append(cf.leafProbs, n.D...)
				return
			}
			i := len(cf.nodes)
			cf.nodes = append(cf.nodes, node{})
			emit(n.L)
			cf.nodes[i] = packNode(int32(i), uint16(n.F), int32(len(cf.nodes)), n.T)
			emit(n.R)
		}
		emit(0)
	}
	return cf, nil
}

// Decompile reconstructs a pointer-linked forest from the compiled form.
// Node order within each tree is the compiled preorder, not the source
// order, but the tree structure, thresholds, and leaf distributions are
// exact — Compile(Decompile(cf)) re-encodes to the same bytes, and every
// prediction is bit-identical. Used by the differential tests.
func (cf *Forest) Decompile() *forest.Forest {
	f := &forest.Forest{
		NClasses: cf.nClasses,
		Trees:    make([]forest.Tree, len(cf.roots)),
	}
	nc := cf.nClasses
	for ti := range cf.roots {
		lo, hi := cf.treeBounds(ti)
		nodes := make([]forest.Node, hi-lo)
		for i := lo; i < hi; i++ {
			n := &nodes[i-lo]
			nd := cf.nodes[i]
			if !nd.isLeaf() {
				n.F = int(nd.feat())
				n.T = nd.t
				n.L = int(i + 1 - lo)
				n.R = int(nd.right(i) - lo)
				continue
			}
			n.F = -1
			off := probOff(nd.leafWord())
			n.D = append([]float64(nil), cf.leafProbs[off:off+nc]...)
		}
		f.Trees[ti] = forest.Tree{Nodes: nodes}
	}
	return f
}

// treeBounds returns tree ti's [lo, hi) node range in the arena.
func (cf *Forest) treeBounds(ti int) (lo, hi int32) {
	lo = cf.roots[ti]
	if ti+1 < len(cf.roots) {
		return lo, cf.roots[ti+1]
	}
	return lo, int32(len(cf.nodes))
}

// treeChunk is the tree-group size of accumulate's two-phase walk: leaf
// words for up to treeChunk trees are buffered on the stack before
// accumulation, so descent order can differ from accumulation order.
const treeChunk = 64

// walkChunk descends every tree rooted in roots on x, writing the leaf word
// (see packLeaf) of each tree's final leaf into the matching lw slot. Trees
// are walked in lockstep pairs: the two load chains are independent, so the
// CPU overlaps their node fetches instead of serializing them. Parked leaves
// (see node) make the pair loop guard-free — a chain that reaches its leaf
// first keeps harmlessly stepping in place until the other finishes.
//
// This walk takes the descent step as a branch (descend), not as step's
// arithmetic: one vector gives the CPU only as many independent chains as
// the loop interleaves, and with two of them a correctly predicted jump —
// the next node's load issues before the comparison resolves — beats waiting
// out a load-compare-select round trip per level. A single vector is also
// what gets replayed (benchmarks, retries, a tuner re-asking), which is when
// prediction works. See the package comment for the measurements.
//
// Callers must guarantee len(x) > 0 (any forest with an internal node
// requires it; see accumulate for the leaf-only case).
// The loops read nodes and x through raw pointers: bounds checks cost ~15%
// of the whole predict here, and every index is already proven in range
// before evaluation ever starts — Compile and UnmarshalBinary validate that
// each node's right child stays inside its tree's arena segment, each
// split's feature index is below nFeatures (and PredictInto rejects vectors
// shorter than nFeatures), and a parked leaf reads feature 0.
func walkChunk(nodes []node, x []float64, roots []int32, lw []uint64) {
	np := unsafe.Pointer(unsafe.SliceData(nodes))
	xp := unsafe.Pointer(unsafe.SliceData(x))
	t := 0
	for ; t+2 <= len(roots); t += 2 {
		i0, i1 := rootAt(roots[t]), rootAt(roots[t+1])
		n0, n1 := nodeAt(np, i0), nodeAt(np, i1)
		for int64(n0.meta&n1.meta) >= 0 { // not both parked
			i0 = descend(n0, xp, i0)
			n0 = nodeAt(np, i0)
			i1 = descend(n1, xp, i1)
			n1 = nodeAt(np, i1)
		}
		lw[t], lw[t+1] = n0.leafWord(), n1.leafWord()
	}
	if t < len(roots) {
		i := rootAt(roots[t])
		n := nodeAt(np, i)
		for !n.isLeaf() {
			i = descend(n, xp, i)
			n = nodeAt(np, i)
		}
		lw[t] = n.leafWord()
	}
}

// descend is the single-vector walk's descent step: from node n at arena
// byte offset p on the vector at xp, the left child is the next slot and the
// right child n's packed distance further. It decides exactly as step does —
// left when x <= n.t, right otherwise, NaN included — but with a jump the CPU
// predicts; a parked leaf lands on itself.
func descend(n node, xp unsafe.Pointer, p uintptr) uintptr {
	if *(*float64)(unsafe.Add(xp, uintptr(n.meta&featMask))) <= n.t {
		return p + nodeSize
	}
	return p + nodeSize + uintptr(n.dist())
}

// accumulate descends every tree on x, adding leaf distributions into acc
// and hard votes into votes — the allocation-free core shared by the single
// and batch entry points. x must have at least nFeatures entries and votes
// must be a zeroed nClasses-sized slice (checked by callers); acc must be
// nClasses long but its contents are overwritten, not added to.
//
// The common small class counts get specialized loops that keep the running
// sums in registers instead of bouncing every add through memory; every
// variant performs the same adds in the same tree and class order starting
// from zero, so bit-identity with the pointer evaluator is unaffected.
// accumulate returns the argmax class, computed with the pointer
// evaluator's exact rule (strict >, lowest index wins ties).
func (cf *Forest) accumulate(x []float64, acc []float64, votes []int) int {
	if cf.nFeatures == 0 {
		// A forest with zero declared features is all leaf-only trees (any
		// split node forces nFeatures >= 1): nothing to descend, and no x
		// to read.
		cf.accumulateLeafOnly(acc, votes)
		return cf.finalize(acc)
	}
	switch cf.nClasses {
	case 3:
		return cf.accumulate3(x, acc, votes)
	case 4:
		return cf.accumulate4(x, acc, votes)
	default:
		cf.accumulateAny(x, acc, votes)
		return cf.finalize(acc)
	}
}

func (cf *Forest) accumulate3(x []float64, acc []float64, votes []int) int {
	lp := cf.leafProbs
	roots := cf.roots
	var lw [treeChunk]uint64
	var a0, a1, a2 float64
	for g := 0; g < len(roots); g += treeChunk {
		n := len(roots) - g
		if n > treeChunk {
			n = treeChunk
		}
		walkChunk(cf.nodes, x, roots[g:g+n], lw[:n])
		for _, w := range lw[:n] {
			off := probOff(w)
			a0 += lp[off]
			a1 += lp[off+1]
			a2 += lp[off+2]
			votes[vote(w)]++
		}
	}
	// Mean and argmax stay in registers: same divides, same strict-> /
	// first-wins comparison sequence as finalize, so results are
	// bit-identical.
	n := float64(len(roots))
	a0 /= n
	a1 /= n
	a2 /= n
	acc[0], acc[1], acc[2] = a0, a1, a2
	cls, best := 0, a0
	if a1 > best {
		cls, best = 1, a1
	}
	if a2 > best {
		cls = 2
	}
	return cls
}

func (cf *Forest) accumulate4(x []float64, acc []float64, votes []int) int {
	lp := cf.leafProbs
	roots := cf.roots
	var lw [treeChunk]uint64
	var a0, a1, a2, a3 float64
	for g := 0; g < len(roots); g += treeChunk {
		n := len(roots) - g
		if n > treeChunk {
			n = treeChunk
		}
		walkChunk(cf.nodes, x, roots[g:g+n], lw[:n])
		for _, w := range lw[:n] {
			off := probOff(w)
			a0 += lp[off]
			a1 += lp[off+1]
			a2 += lp[off+2]
			a3 += lp[off+3]
			votes[vote(w)]++
		}
	}
	n := float64(len(roots))
	a0 /= n
	a1 /= n
	a2 /= n
	a3 /= n
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	cls, best := 0, a0
	if a1 > best {
		cls, best = 1, a1
	}
	if a2 > best {
		cls, best = 2, a2
	}
	if a3 > best {
		cls = 3
	}
	return cls
}

func (cf *Forest) accumulateAny(x []float64, acc []float64, votes []int) {
	lp := cf.leafProbs
	nc := cf.nClasses
	roots := cf.roots
	var lw [treeChunk]uint64
	for c := range acc {
		acc[c] = 0
	}
	for g := 0; g < len(roots); g += treeChunk {
		n := len(roots) - g
		if n > treeChunk {
			n = treeChunk
		}
		walkChunk(cf.nodes, x, roots[g:g+n], lw[:n])
		for _, w := range lw[:n] {
			off := probOff(w)
			for c, p := range lp[off : off+nc] {
				acc[c] += p
			}
			votes[vote(w)]++
		}
	}
}

// accumulateLeafOnly handles the degenerate zero-feature forest, where
// every tree is a single leaf.
func (cf *Forest) accumulateLeafOnly(acc []float64, votes []int) {
	lp := cf.leafProbs
	nc := cf.nClasses
	for c := range acc {
		acc[c] = 0
	}
	for _, i := range cf.roots {
		w := cf.nodes[i].leafWord()
		off := probOff(w)
		for c, p := range lp[off : off+nc] {
			acc[c] += p
		}
		votes[vote(w)]++
	}
}

// finalize converts accumulated sums into the mean distribution and argmax
// class. The divides run in their own loop so they pipeline instead of each
// gating an argmax comparison; the resulting values and the argmax rule
// (strict >, lowest index wins) are exactly the pointer evaluator's.
func (cf *Forest) finalize(acc []float64) int {
	n := float64(len(cf.roots))
	for c := range acc {
		acc[c] /= n
	}
	cls := 0
	for c := range acc {
		if acc[c] > acc[cls] {
			cls = c
		}
	}
	return cls
}

// PredictInto evaluates the forest on x, writing the result into p. The
// Probs and Votes slices inside p are reused when they have sufficient
// capacity, so a caller that recycles one Prediction value pays zero
// allocations per call in steady state.
func (cf *Forest) PredictInto(x []float64, p *forest.Prediction) error {
	if len(x) < cf.nFeatures {
		return fmt.Errorf("compiled: feature vector has %d entries, forest needs %d", len(x), cf.nFeatures)
	}
	var start time.Time
	fn := cf.onPredict.Load()
	if fn != nil {
		start = time.Now()
	}
	acc := resizeFloatsCap(p.Probs, cf.nClasses)
	votes := resizeInts(p.Votes, cf.nClasses)
	p.Class = cf.accumulate(x, acc, votes)
	p.Probs = acc
	p.Votes = votes
	if fn != nil {
		(*fn)(time.Since(start).Seconds())
	}
	return nil
}

// Predict evaluates the forest on x into a fresh Prediction — the drop-in
// replacement for forest.Forest.Predict with identical results.
func (cf *Forest) Predict(x []float64) (forest.Prediction, error) {
	var p forest.Prediction
	err := cf.PredictInto(x, &p)
	return p, err
}

// resizeFloatsCap returns a length-n slice reusing s's backing array when
// capacity allows; contents are overwritten by the caller, not zeroed.
func resizeFloatsCap(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeFloats returns a zeroed slice of length n, reusing s's backing
// array when capacity allows.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resizeInts is resizeFloats for int slices.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
