package compiled

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout (all little-endian):
//
//	magic   [4]byte "PMLC"
//	version uint32  (binaryVersion)
//	nClasses, nFeatures, nTrees, nNodes, nLeaves  uint32
//	roots     nTrees  × int32
//	feat      nNodes  × uint16
//	thresh    nNodes  × float64
//	offs      nNodes  × int32
//	leafVotes nLeaves × int32
//	leafProbs nLeaves*nClasses × float64
//
// The arrays are the arena itself — decoding is a bounds-checked copy, no
// tree reconstruction — which is what makes binary loads cheap enough for
// fleet distribution. UnmarshalBinary re-validates structure so a corrupt
// or hostile buffer can never produce a forest whose descent loops or
// indexes out of range.

// binaryMagic identifies a compiled-forest binary blob.
var binaryMagic = [4]byte{'P', 'M', 'L', 'C'}

// binaryVersion is the compiled-forest binary layout version.
const binaryVersion = 1

// binarySize returns the exact encoded size of the forest.
func (cf *Forest) binarySize() int {
	return 4 + 4 + 5*4 + // magic, version, five counts
		4*len(cf.roots) +
		(2+8+4)*len(cf.nodes) + // feat, thresh, offs arrays
		4*len(cf.leafVotes) +
		8*len(cf.leafProbs)
}

// AppendBinary appends the forest's binary encoding to dst and returns the
// extended slice.
func (cf *Forest) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, binaryVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cf.nClasses))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cf.nFeatures))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cf.roots)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cf.nodes)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cf.leafVotes)))
	for _, r := range cf.roots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r))
	}
	for _, nd := range cf.nodes {
		// The wire marks leaves with the all-ones sentinel, not the
		// in-memory parked flag.
		if nd.isLeaf() {
			dst = binary.LittleEndian.AppendUint16(dst, leafSentinel)
		} else {
			dst = binary.LittleEndian.AppendUint16(dst, nd.feat())
		}
	}
	for _, nd := range cf.nodes {
		// Leaves carry a canonical zero threshold on the wire; the parked
		// NaN is an in-memory descent artifact.
		if nd.isLeaf() {
			dst = binary.LittleEndian.AppendUint64(dst, 0)
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(nd.t))
		}
	}
	for i, nd := range cf.nodes {
		// The wire carries the right child's arena index, or a leaf's
		// ordinal; the premultiplied leafProbs offset divides back exactly.
		o := nd.right(int32(i))
		if nd.isLeaf() {
			o = int32(probOff(nd.leafWord()) / cf.nClasses)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(o))
	}
	for _, v := range cf.leafVotes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, p := range cf.leafProbs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	return dst
}

// MarshalBinary encodes the forest into a fresh buffer.
func (cf *Forest) MarshalBinary() ([]byte, error) {
	return cf.AppendBinary(make([]byte, 0, cf.binarySize())), nil
}

// UnmarshalBinary decodes data into cf, replacing its contents. Existing
// arena slices are reused when their capacity suffices, so re-decoding a
// same-shaped forest into a warm receiver allocates nothing. The decoded
// structure is fully re-validated (root ordering, preorder child offsets
// within each tree, feature and leaf ranges), so untrusted bytes cannot
// yield a forest that loops or reads out of bounds.
func (cf *Forest) UnmarshalBinary(data []byte) error {
	const header = 4 + 4 + 5*4
	if len(data) < header {
		return fmt.Errorf("compiled: binary forest truncated at %d bytes (header needs %d)", len(data), header)
	}
	if [4]byte(data[:4]) != binaryMagic {
		return fmt.Errorf("compiled: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != binaryVersion {
		return fmt.Errorf("compiled: unsupported binary version %d (this build reads %d)", v, binaryVersion)
	}
	nClasses := int(binary.LittleEndian.Uint32(data[8:]))
	nFeatures := int(binary.LittleEndian.Uint32(data[12:]))
	nTrees := int(binary.LittleEndian.Uint32(data[16:]))
	nNodes := int(binary.LittleEndian.Uint32(data[20:]))
	nLeaves := int(binary.LittleEndian.Uint32(data[24:]))

	if nClasses <= 0 || nClasses > maxClasses {
		return fmt.Errorf("compiled: implausible class count %d", nClasses)
	}
	if nFeatures < 0 || nFeatures >= maxFeatures {
		return fmt.Errorf("compiled: implausible feature count %d", nFeatures)
	}
	if nTrees <= 0 || nNodes < nTrees || nNodes > maxNodes || nLeaves < nTrees || nLeaves > nNodes {
		return fmt.Errorf("compiled: implausible shape (trees=%d nodes=%d leaves=%d)", nTrees, nNodes, nLeaves)
	}
	nProbs := nLeaves * nClasses
	if nProbs > maxNodes {
		return fmt.Errorf("compiled: %d leaf probabilities exceed the arena bound %d", nProbs, maxNodes)
	}
	want := header + 4*nTrees + 2*nNodes + 8*nNodes + 4*nNodes + 4*nLeaves + 8*nProbs
	if len(data) != want {
		return fmt.Errorf("compiled: binary forest is %d bytes, layout requires %d", len(data), want)
	}

	roots := resizeInt32s(cf.roots, nTrees)
	nodes := resizeNodes(cf.nodes, nNodes)
	votes := resizeInt32s(cf.leafVotes, nLeaves)
	probs := resizeFloats(cf.leafProbs, nProbs)

	off := header
	for i := range roots {
		roots[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	// The wire arrays (feat, thresh, offs) interleave into the node arena,
	// staged in wire form (see wireFeat, wireOff): three passes, each
	// filling one field of every node.
	for i := range nodes {
		nodes[i].meta = uint64(binary.LittleEndian.Uint16(data[off:]))
		off += 2
	}
	for i := range nodes {
		nodes[i].t = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	for i := range nodes {
		nodes[i].meta |= uint64(binary.LittleEndian.Uint32(data[off:])) << 16
		off += 4
	}
	for i := range votes {
		votes[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := range probs {
		probs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}

	if err := validateArena(nClasses, nFeatures, nLeaves, roots, nodes, votes); err != nil {
		return err
	}
	// The staged nodes still carry wire semantics (sentinel feature,
	// absolute offset or leaf ordinal); pack them into the in-memory form
	// now that validation proved every offset, ordinal and vote is in range.
	for i, nd := range nodes {
		if wireFeat(nd) == leafSentinel {
			k := wireOff(nd)
			nodes[i] = packLeaf(k*int32(nClasses), votes[k])
		} else {
			nodes[i] = packNode(int32(i), wireFeat(nd), wireOff(nd), nd.t)
		}
	}
	cf.nClasses = nClasses
	cf.nFeatures = nFeatures
	cf.roots = roots
	cf.nodes = nodes
	cf.leafVotes = votes
	cf.leafProbs = probs
	return nil
}

// DecodeBinary decodes a compiled forest from data into a fresh Forest.
func DecodeBinary(data []byte) (*Forest, error) {
	cf := &Forest{}
	if err := cf.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return cf, nil
}

// wireFeat and wireOff read a node staged in wire form during decoding: the
// wire's feature index (or leafSentinel) in the meta word's low 16 bits, its
// offs entry — right child's arena index, or leaf ordinal — above them.
func wireFeat(n node) uint16 { return uint16(n.meta) }
func wireOff(n node) int32   { return int32(uint32(n.meta >> 16)) }

// validateArena proves the staged arrays describe a well-formed preorder
// forest: roots partition the arena in ascending order, every internal
// node's right-child offset points strictly past its left child and stays
// inside its tree (so descent strictly advances and must terminate at a
// leaf), feature indices fit the declared vector length, and every leaf's
// ordinal and vote are in range.
func validateArena(nClasses, nFeatures, nLeaves int, roots []int32, nodes []node, votes []int32) error {
	nNodes := len(nodes)
	for ti, r := range roots {
		if int(r) >= nNodes || r < 0 {
			return fmt.Errorf("compiled: tree %d root %d outside arena [0,%d)", ti, r, nNodes)
		}
		if ti == 0 {
			if r != 0 {
				return fmt.Errorf("compiled: first root at %d, want 0", r)
			}
		} else if r <= roots[ti-1] {
			return fmt.Errorf("compiled: roots not strictly ascending at tree %d", ti)
		}
	}
	for ti := range roots {
		lo := roots[ti]
		hi := int32(nNodes)
		if ti+1 < len(roots) {
			hi = roots[ti+1]
		}
		for i := lo; i < hi; i++ {
			nd := nodes[i]
			if wireFeat(nd) == leafSentinel {
				k := wireOff(nd)
				if k < 0 || int(k) >= nLeaves {
					return fmt.Errorf("compiled: tree %d node %d leaf ordinal %d out of range [0,%d)", ti, i-lo, k, nLeaves)
				}
				if v := votes[k]; v < 0 || int(v) >= nClasses {
					return fmt.Errorf("compiled: tree %d node %d vote class %d out of range [0,%d)", ti, i-lo, v, nClasses)
				}
				if b := math.Float64bits(nd.t); b != 0 {
					return fmt.Errorf("compiled: tree %d node %d leaf threshold %#x not canonical zero", ti, i-lo, b)
				}
				continue
			}
			if int(wireFeat(nd)) >= nFeatures {
				return fmt.Errorf("compiled: tree %d node %d feature %d out of range [0,%d)", ti, i-lo, wireFeat(nd), nFeatures)
			}
			// Preorder invariant: left child at i+1, left subtree fills
			// (i, off), right child at off before the tree's end. This
			// bounds i+1 < hi too, so descent can never escape.
			if r := wireOff(nd); r <= i+1 || r >= hi {
				return fmt.Errorf("compiled: tree %d node %d right child %d outside (%d,%d)", ti, i-lo, r, i+1-lo, hi-lo)
			}
		}
	}
	return nil
}

// resizeInt32s returns a length-n slice reusing s's backing array when
// possible; contents are overwritten by the caller.
func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// resizeNodes is resizeInt32s for the packed node arena.
func resizeNodes(s []node, n int) []node {
	if cap(s) < n {
		return make([]node, n)
	}
	return s[:n]
}
