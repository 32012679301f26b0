package bundle

import (
	"encoding/json"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
	ja "github.com/pml-mpi/pmlmpi/pkg/jsonappend"
)

// This file is the fast path of Parse: a single-pass, reflection-free
// decoder for the shape real bundles have — what Encode writes and what the
// paper bundle is. It takes objects whose members are the fields of
// Collective, forest.Forest, forest.Tree and forest.Node (members no field
// claims are skipped, as encoding/json skips them), each at most once, with
// plain keys, plain collective names, a plain version string and integers
// in int fields. On anything else — escapes, a key that names a field only
// case-insensitively, a duplicate, null, a fraction or an exponent where an
// int goes, trailing bytes, malformed input, or a bundle that fails
// validation — it declines, and Parse runs encoding/json on the same bytes,
// which decodes what the scanner would not or produces the error. Every
// bundle the scanner returns is one the reflective path returns too, field
// for field.

// Field names, as encoding/json matches them, of the structs the scanner
// decodes by hand.
var (
	collectiveFields = []string{"op", "full_importance", "features", "feature_names", "forest", "cv_auc"}
	forestFields     = []string{"trees", "nclasses", "importance", "oob"}
	treeFields       = []string{"nodes"}
	nodeFields       = []string{"f", "t", "l", "r", "d"}
)

// Nesting of the values the scanner skips, counted as SkipValue counts it:
// the containers open around a member of a collective, a forest, a tree and
// a node.
const (
	collectiveDepth = 2 // the bundle, the collective
	forestDepth     = 3 // … the forest
	treeDepth       = 5 // … "trees", the tree
	nodeDepth       = 7 // … "nodes", the node
)

// parseCanonical decodes, validates and compiles a bundle of the canonical
// shape, or returns nil. It leaves the provenance fields to Parse.
func parseCanonical(data []byte) *Bundle {
	b := &Bundle{Collectives: make(map[string]*Collective)}
	var sc scanner
	if !sc.bundle(data, b) || b.Version != SupportedVersion || len(b.Collectives) == 0 {
		return nil
	}
	if b.Stats != nil && validateFeatureStats(b.Stats) != nil {
		return nil
	}
	for _, c := range b.Collectives {
		if validateCollective(c) != nil || c.Compiled() == nil {
			return nil
		}
	}
	return b
}

// scanner holds the working memory of one bundle decode. Trees, nodes and
// leaf distributions are read into it and copied out at their exact size,
// so the bundle holds no slack.
type scanner struct {
	trees  []forest.Tree // the trees of the forest being read
	nodes  []forest.Node // the nodes of the tree being read
	floats []float64     // the leaf distributions of the forest being read
}

// field returns the name among names of the field encoding/json stores the
// member with literal key in, or "" for a member it ignores. ok is false
// when the scanner must decline: the key names a field only after
// unescaping or case folding, or names one already seen (seen has a bit
// per name).
func field(key []byte, names []string, seen *uint) (name string, ok bool) {
	text := key[1 : len(key)-1]
	for f, name := range names {
		if string(text) == name {
			if *seen&(1<<f) != 0 {
				return "", false
			}
			*seen |= 1 << f
			return name, true
		}
	}
	for _, name := range names {
		if ja.KeyNames(key, name) {
			return "", false
		}
	}
	return "", true
}

// integer reads a number encoding/json stores in an int field: digits
// only, no fraction or exponent (it refuses those), at most 15 of them.
func integer(b []byte, i int) (n int, end int) {
	if end = ja.SkipNumber(b, i); end < 0 {
		return 0, -1
	}
	f, ok := ja.SmallInt(b[i:end])
	if !ok {
		return 0, -1
	}
	return int(f), end
}

// floats reads an array of numbers onto dst.
func floats(b []byte, i int, dst []float64) ([]float64, int) {
	i, empty := ja.Open(b, i, '[', ']')
	for more := i >= 0 && !empty; more; {
		var v float64
		if v, i = ja.Number(b, i); i < 0 {
			return dst, -1
		}
		dst = append(dst, v)
		i, more = ja.AfterValue(b, i, ']')
	}
	return dst, i
}

// unmarshal reads one value of depth containers deep with encoding/json,
// on its own span: for the small members not worth a hand-written reader.
func unmarshal(b []byte, i, depth int, v any) int {
	end := ja.SkipValue(b, i, depth)
	if end < 0 || json.Unmarshal(b[i:end], v) != nil {
		return -1
	}
	return end
}

// bundle reads the top-level object that is all of b into out.
func (sc *scanner) bundle(b []byte, out *Bundle) bool {
	i, empty := ja.Open(b, ja.SkipSpace(b, 0), '{', '}')
	var sawVersion, sawTrainedOn, sawStats bool
	for more := i >= 0 && !empty; more; {
		key, at := ja.MemberKey(b, i)
		if at < 0 || !ja.IsPlain(key[1:len(key)-1]) {
			return false
		}
		switch name := key[1 : len(key)-1]; string(name) {
		case "version":
			if sawVersion {
				return false
			}
			sawVersion = true
			// Only a literal of plain bytes: its contents are its value.
			if i = ja.SkipString(b, at); i < 0 || !ja.IsPlain(b[at+1:i-1]) {
				return false
			}
			out.Version = string(b[at+1 : i-1])
		case "trained_on":
			if sawTrainedOn {
				return false
			}
			sawTrainedOn = true
			i = unmarshal(b, at, 1, &out.TrainedOn)
		case "feature_stats":
			if sawStats {
				return false
			}
			sawStats = true
			out.Stats = new(FeatureStats)
			i = unmarshal(b, at, 1, out.Stats)
		default:
			if _, dup := out.Collectives[string(name)]; dup {
				return false
			}
			c := &Collective{Name: string(name)}
			i = sc.collective(b, at, c)
			out.Collectives[c.Name] = c
		}
		if i, more = ja.AfterValue(b, i, '}'); i < 0 {
			return false
		}
	}
	return i >= 0 && ja.SkipSpace(b, i) == len(b)
}

func (sc *scanner) collective(b []byte, i int, c *Collective) int {
	i, empty := ja.Open(b, i, '{', '}')
	var seen uint
	for more := i >= 0 && !empty; more; {
		key, at := ja.MemberKey(b, i)
		if at < 0 {
			return -1
		}
		name, ok := field(key, collectiveFields, &seen)
		switch {
		case !ok:
			return -1
		case name == "op":
			c.Op, i = integer(b, at)
		case name == "full_importance":
			i = unmarshal(b, at, collectiveDepth, &c.FullImportance)
		case name == "features":
			i = unmarshal(b, at, collectiveDepth, &c.Features)
		case name == "feature_names":
			i = unmarshal(b, at, collectiveDepth, &c.FeatureNames)
		case name == "forest":
			c.Forest = new(forest.Forest)
			i = sc.forest(b, at, c.Forest)
		case name == "cv_auc":
			c.CVAUC, i = ja.Number(b, at)
		default:
			i = ja.SkipValue(b, at, collectiveDepth)
		}
		i, more = ja.AfterValue(b, i, '}')
	}
	return i
}

func (sc *scanner) forest(b []byte, i int, f *forest.Forest) int {
	i, empty := ja.Open(b, i, '{', '}')
	var seen uint
	for more := i >= 0 && !empty; more; {
		key, at := ja.MemberKey(b, i)
		if at < 0 {
			return -1
		}
		name, ok := field(key, forestFields, &seen)
		switch {
		case !ok:
			return -1
		case name == "trees":
			i = sc.treeList(b, at, f)
		case name == "nclasses":
			f.NClasses, i = integer(b, at)
		case name == "importance":
			var imp []float64
			if imp, i = floats(b, at, sc.floats[:0]); i >= 0 {
				f.Importance = make([]float64, len(imp))
				copy(f.Importance, imp)
			}
		case name == "oob":
			f.OOB, i = ja.Number(b, at)
		default:
			i = ja.SkipValue(b, at, forestDepth)
		}
		i, more = ja.AfterValue(b, i, '}')
	}
	return i
}

// treeList reads the "trees" array into f.Trees, and then cuts every leaf
// distribution of the forest from one slab.
func (sc *scanner) treeList(b []byte, i int, f *forest.Forest) int {
	i, empty := ja.Open(b, i, '[', ']')
	sc.trees, sc.floats = sc.trees[:0], sc.floats[:0]
	if sc.floats == nil {
		sc.floats = make([]float64, 0, 1024) // so an empty "d" reads as non-nil
	}
	for more := i >= 0 && !empty; more; {
		sc.trees = append(sc.trees, forest.Tree{})
		i, more = ja.AfterValue(b, sc.tree(b, i, &sc.trees[len(sc.trees)-1]), ']')
	}
	if i < 0 {
		return -1
	}
	f.Trees = make([]forest.Tree, len(sc.trees))
	copy(f.Trees, sc.trees)
	clear(sc.trees) // the scratch must not keep the node slices alive
	// Each node's D is still its span of the scratch: the distributions
	// lie there back to back, in node order.
	slab := make([]float64, len(sc.floats))
	copy(slab, sc.floats)
	off := 0
	for t := range f.Trees {
		nodes := f.Trees[t].Nodes
		for n := range nodes {
			if d := nodes[n].D; d != nil {
				nodes[n].D = slab[off : off+len(d) : off+len(d)]
				off += len(d)
			}
		}
	}
	return i
}

func (sc *scanner) tree(b []byte, i int, t *forest.Tree) int {
	i, empty := ja.Open(b, i, '{', '}')
	var seen uint
	for more := i >= 0 && !empty; more; {
		key, at := ja.MemberKey(b, i)
		if at < 0 {
			return -1
		}
		name, ok := field(key, treeFields, &seen)
		switch {
		case !ok:
			return -1
		case name == "nodes":
			i = sc.nodeList(b, at, t)
		default: // the paper bundle's per-tree "nclasses"
			i = ja.SkipValue(b, at, treeDepth)
		}
		i, more = ja.AfterValue(b, i, '}')
	}
	return i
}

// nodeList reads the "nodes" array into t.Nodes, at its exact size.
func (sc *scanner) nodeList(b []byte, i int, t *forest.Tree) int {
	i, empty := ja.Open(b, i, '[', ']')
	sc.nodes = sc.nodes[:0]
	for more := i >= 0 && !empty; more; {
		sc.nodes = append(sc.nodes, forest.Node{})
		i, more = ja.AfterValue(b, sc.node(b, i, &sc.nodes[len(sc.nodes)-1]), ']')
	}
	if i < 0 {
		return -1
	}
	t.Nodes = make([]forest.Node, len(sc.nodes))
	copy(t.Nodes, sc.nodes)
	return i
}

// node reads one node into n. Its distribution goes onto the forest's
// floats, and n.D is left as its span there, for treeList to move.
func (sc *scanner) node(b []byte, i int, n *forest.Node) int {
	i, empty := ja.Open(b, i, '{', '}')
	var seen uint
	for more := i >= 0 && !empty; more; {
		key, at := ja.MemberKey(b, i)
		if at < 0 {
			return -1
		}
		name, ok := field(key, nodeFields, &seen)
		switch {
		case !ok:
			return -1
		case name == "f":
			n.F, i = integer(b, at)
		case name == "t":
			n.T, i = ja.Number(b, at)
		case name == "l":
			n.L, i = integer(b, at)
		case name == "r":
			n.R, i = integer(b, at)
		case name == "d":
			off := len(sc.floats)
			sc.floats, i = floats(b, at, sc.floats)
			n.D = sc.floats[off:len(sc.floats):len(sc.floats)]
		default:
			i = ja.SkipValue(b, at, nodeDepth)
		}
		i, more = ja.AfterValue(b, i, '}')
	}
	return i
}
