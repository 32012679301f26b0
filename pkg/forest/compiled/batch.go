package compiled

import (
	"fmt"
	"time"
	"unsafe"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// lanes is the lockstep width of the batch walk: eight vectors go down each
// tree together. Eight independent load chains cover the
// load-compare-select latency of a branch-free descent step, and eight
// positions still fit the integer register file next to the two base
// pointers.
const lanes = 8

// blockLanes is how many lane groups share one pass over the forest. Within
// a block the walk is tree-major — each tree's arena segment is fetched
// once and descended by every group while it is hot — and the block's
// interleaved feature copy (blockLanes*lanes vectors) stays small enough to
// live on the stack beside it.
const blockLanes = 8

// stackFeatures bounds the feature count whose interleaved block copy fits
// the kernel's stack scratch; wider forests take one heap scratch per call.
const stackFeatures = 16

// step is the batch walk's descent step: from node n at arena byte offset
// p, go left (the next slot) when x <= n.t and right (n's packed distance
// further) otherwise — NaN included, exactly the pointer walk's predicate.
// It is written as arithmetic, not as a branch: the comparison becomes a 0/1
// flag (SETcc) and the flag masks the distance in or out, so the CPU never
// has to guess which way a split goes. A parked leaf (NaN threshold,
// distance -nodeSize) steps onto itself.
func step(n node, x float64, p uintptr) uintptr {
	var le uintptr
	if x <= n.t {
		le = 1
	}
	return p + nodeSize + (uintptr(n.dist()) & (le - 1))
}

// nodeAt loads the arena node at byte offset p without a bounds check; see
// walkChunk for why every offset the descent produces is in range.
func nodeAt(np unsafe.Pointer, p uintptr) node {
	return *(*node)(unsafe.Add(np, p))
}

// rootAt returns the arena byte offset of the node at index root.
func rootAt(root int32) uintptr { return uintptr(uint32(root)) * nodeSize }

// laneFeature reads lane k's value of the feature n splits on from an
// interleaved block: xt[f*lanes+k] is vector k's feature f, so one base
// pointer serves all eight lanes, the lane is a constant displacement and
// the node's feature byte offset only needs scaling by the lane count.
func laneFeature(xt unsafe.Pointer, n node, k uintptr) float64 {
	return *(*float64)(unsafe.Add(xt, uintptr(n.meta&featMask)*lanes+k*8))
}

// walkLanes descends the tree rooted at root for the eight vectors
// interleaved at xt, in lockstep, and returns the leaf words (see packLeaf)
// they stop on in lw. Parked leaves make the loop guard-free: a lane that
// has arrived keeps stepping in place until the deepest lane is done.
func walkLanes(np, xt unsafe.Pointer, root int32, lw *[lanes]uint64) {
	i0 := rootAt(root)
	i1, i2, i3, i4, i5, i6, i7 := i0, i0, i0, i0, i0, i0, i0
	for {
		n0, n1, n2, n3 := nodeAt(np, i0), nodeAt(np, i1), nodeAt(np, i2), nodeAt(np, i3)
		n4, n5, n6, n7 := nodeAt(np, i4), nodeAt(np, i5), nodeAt(np, i6), nodeAt(np, i7)
		if int64(n0.meta&n1.meta&n2.meta&n3.meta&n4.meta&n5.meta&n6.meta&n7.meta) < 0 { // all parked
			lw[0], lw[1], lw[2], lw[3] = n0.leafWord(), n1.leafWord(), n2.leafWord(), n3.leafWord()
			lw[4], lw[5], lw[6], lw[7] = n4.leafWord(), n5.leafWord(), n6.leafWord(), n7.leafWord()
			return
		}
		i0 = step(n0, laneFeature(xt, n0, 0), i0)
		i1 = step(n1, laneFeature(xt, n1, 1), i1)
		i2 = step(n2, laneFeature(xt, n2, 2), i2)
		i3 = step(n3, laneFeature(xt, n3, 3), i3)
		i4 = step(n4, laneFeature(xt, n4, 4), i4)
		i5 = step(n5, laneFeature(xt, n5, 5), i5)
		i6 = step(n6, laneFeature(xt, n6, 6), i6)
		i7 = step(n7, laneFeature(xt, n7, 7), i7)
	}
}

// PredictBatch evaluates every vector in xs across all trees, writing
// results into out (which must be exactly len(xs) long). Vectors are taken
// eight at a time, in blocks; within a block the walk is tree-major and the
// eight vectors of a group descend each tree in lockstep through the shared
// branch-free step, while each vector's accumulation still happens in tree
// order, so every result is bit-identical to a standalone Predict on the
// same vector. The vectors left over after the last full group take the
// single-vector walk: a group with idle lanes would cost as much as a full
// one.
//
// The batch runs on the calling goroutine — callers that want parallelism
// split the batch (selector.Config.BatchWorkers) — and, with out's Probs and
// Votes slices pre-sized from an earlier call, performs zero allocations
// for forests of up to stackFeatures features. An Instrument hook receives
// one observation per vector: the vector's share of the batch's wall time.
func (cf *Forest) PredictBatch(xs [][]float64, out []forest.Prediction) error {
	if len(out) != len(xs) {
		return fmt.Errorf("compiled: batch output has %d slots for %d vectors", len(out), len(xs))
	}
	for v, x := range xs {
		if len(x) < cf.nFeatures {
			return fmt.Errorf("compiled: batch vector %d has %d entries, forest needs %d", v, len(x), cf.nFeatures)
		}
	}
	if len(xs) == 0 {
		return nil
	}
	var start time.Time
	fn := cf.onPredict.Load()
	if fn != nil {
		start = time.Now()
	}
	for v := range out {
		out[v].Probs = resizeFloats(out[v].Probs, cf.nClasses)
		out[v].Votes = resizeInts(out[v].Votes, cf.nClasses)
	}
	full := 0
	if cf.nFeatures > 0 { // a zero-feature forest has nothing to descend in lockstep
		full = len(xs) / lanes * lanes
		cf.predictGroups(xs[:full], out[:full])
	}
	for v := full; v < len(xs); v++ {
		out[v].Class = cf.accumulate(xs[v], out[v].Probs, out[v].Votes)
	}
	if fn != nil {
		share := time.Since(start).Seconds() / float64(len(xs))
		for range xs {
			(*fn)(share)
		}
	}
	return nil
}

// predictGroups is the tree-major lockstep walk over whole lane groups:
// len(xs) is a multiple of lanes, the forest has at least one feature, and
// out's Probs and Votes are zeroed and nClasses long.
func (cf *Forest) predictGroups(xs [][]float64, out []forest.Prediction) {
	nf := cf.nFeatures
	var stack [blockLanes * lanes * stackFeatures]float64
	xt := stack[:]
	if need := blockLanes * lanes * nf; need > len(xt) {
		xt = make([]float64, need)
	}
	np := unsafe.Pointer(unsafe.SliceData(cf.nodes))
	lp, nc := cf.leafProbs, cf.nClasses
	const block = blockLanes * lanes
	for lo := 0; lo < len(xs); lo += block {
		bx, bout := xs[lo:], out[lo:]
		if len(bx) > block {
			bx, bout = bx[:block], bout[:block]
		}
		// Interleave the block: vector v's feature f goes to group v/lanes,
		// lane v%lanes of that group's feature f (see laneFeature).
		for v, x := range bx {
			gx := xt[v/lanes*lanes*nf+v%lanes:]
			for f, xf := range x[:nf] {
				gx[f*lanes] = xf
			}
		}
		var lw [lanes]uint64
		for _, root := range cf.roots {
			for g := 0; g < len(bx); g += lanes {
				walkLanes(np, unsafe.Pointer(&xt[g*nf]), root, &lw)
				for k, w := range lw {
					p := &bout[g+k]
					leaf := lp[probOff(w):][:nc]
					acc := p.Probs[:len(leaf)]
					for c, prob := range leaf {
						acc[c] += prob
					}
					p.Votes[vote(w)]++
				}
			}
		}
	}
	for v := range out {
		out[v].Class = cf.finalize(out[v].Probs)
	}
}
