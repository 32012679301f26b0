// Package synth generates deterministic synthetic model bundles for tests
// and benchmarks. Given a seed and shape parameters (collectives, trees,
// depth, features, classes) it produces bundle JSON that pkg/bundle.Parse
// accepts unchanged, so every consumer exercises the exact artifact format
// the production loader sees — no hand-written fixtures, no drift. The same
// Config always yields byte-identical output.
package synth

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// Config shapes a synthetic bundle. The zero value is usable: it yields a
// two-collective bundle of 32 trees, depth 6, 5 features, 4 classes.
type Config struct {
	// Seed drives every random choice; equal configs generate equal bundles.
	Seed int64
	// Collectives names the per-collective forests (default
	// {"allgather", "alltoall"} to mirror the shipped bundle).
	Collectives []string
	// Trees per forest (default 32).
	Trees int
	// Depth is the maximum tree depth (default 6). Branches may terminate
	// early, so trees are irregular like real learned trees.
	Depth int
	// Features is the size of each collective's feature subset, drawn from
	// bundle.RequestFeatures (default 5, max len(RequestFeatures)), so a
	// random bundle never reads a derived feature.
	Features int
	// Classes is the number of algorithm classes per forest (default 4).
	Classes int
	// TrainedOn is the number of synthetic provenance systems (default 3).
	TrainedOn int
	// Labeled switches generation from random trees to a genuinely trained
	// bundle: a reduced perfmodel sweep labels points by analytical argmin
	// cost and a random forest is trained on them, so tree structure and
	// decisions reflect real regime boundaries instead of noise. Every
	// collective must be supported by pkg/perfmodel. Features, Classes, and
	// TrainedOn are ignored in this mode — the feature set is the full
	// canonical space, derived features included, class counts come from
	// the perfmodel algorithm table, and provenance records the swept
	// systems.
	Labeled bool
}

func (c Config) withDefaults() Config {
	if len(c.Collectives) == 0 {
		c.Collectives = []string{"allgather", "alltoall"}
	}
	if c.Trees <= 0 {
		c.Trees = 32
	}
	if c.Depth <= 0 {
		c.Depth = 6
	}
	if c.Features <= 0 {
		c.Features = 5
	}
	if c.Features > len(bundle.RequestFeatures) {
		c.Features = len(bundle.RequestFeatures)
	}
	if c.Classes <= 0 {
		c.Classes = 4
	}
	if c.TrainedOn <= 0 {
		c.TrainedOn = 3
	}
	return c
}

// JSON renders a synthetic bundle in the exact on-disk format
// bundle.Parse expects. Deterministic for a given Config.
func JSON(cfg Config) ([]byte, error) {
	cfg = cfg.withDefaults()
	if cfg.Labeled {
		return labeledJSON(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	doc := make(map[string]any, len(cfg.Collectives)+2)
	doc["version"] = bundle.SupportedVersion
	trained := make([]string, cfg.TrainedOn)
	for i := range trained {
		trained[i] = fmt.Sprintf("synth-sys-%02d", i)
	}
	doc["trained_on"] = trained

	for op, name := range cfg.Collectives {
		if name == "version" || name == "trained_on" {
			return nil, fmt.Errorf("synth: collective name %q collides with a reserved bundle key", name)
		}
		doc[name] = genCollective(rng, cfg, op)
	}
	return json.MarshalIndent(doc, "", " ")
}

// labeledJSON builds a Labeled-mode bundle: analytical sweep → forest
// training → canonical encoding. The sweep grid is reduced relative to
// perfmodel's default so test-path generation stays fast (~100ms) while
// still spanning every cost regime.
func labeledJSON(cfg Config) ([]byte, error) {
	for _, name := range cfg.Collectives {
		if _, err := perfmodel.AlgorithmNames(name); err != nil {
			return nil, fmt.Errorf("synth: labeled mode: %w", err)
		}
	}
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{
		Collectives:  cfg.Collectives,
		Nodes:        []float64{1, 2, 4, 8, 16, 32},
		PPN:          []float64{1, 4, 16},
		Log2MsgSizes: []float64{2, 6, 10, 14, 18, 22},
	})
	if err != nil {
		return nil, fmt.Errorf("synth: labeled sweep: %w", err)
	}
	trainedOn := make([]string, len(perfmodel.DefaultSystems))
	for i, sys := range perfmodel.DefaultSystems {
		trainedOn[i] = "perfmodel/" + sys.Name
	}
	b, _, err := train.TrainBundle(ds, train.BundleConfig{
		Config:    train.Config{Trees: cfg.Trees, MaxDepth: cfg.Depth, Seed: cfg.Seed},
		TrainedOn: trainedOn,
	})
	if err != nil {
		return nil, fmt.Errorf("synth: labeled training: %w", err)
	}
	return b.Encode()
}

// New generates a synthetic bundle and loads it through bundle.Parse, so
// the result is guaranteed to be exactly what the production loader would
// accept from disk.
func New(cfg Config) (*bundle.Bundle, error) {
	data, err := JSON(cfg)
	if err != nil {
		return nil, err
	}
	b, err := bundle.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("synth: generated bundle failed to parse: %w", err)
	}
	b.SizeBytes = int64(len(data))
	return b, nil
}

// MustNew is New for tests and benchmarks that treat a generation failure
// as fatal programmer error.
func MustNew(cfg Config) *bundle.Bundle {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Points returns n deterministic feature maps covering every request
// feature, so each point is a valid input for every collective in any
// synthetic bundle. Distinct indices yield distinct maps (values carry
// far more than cache-quantum precision).
func Points(seed int64, n int) []map[string]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5f3759df))
	pts := make([]map[string]float64, n)
	for i := range pts {
		m := make(map[string]float64, len(bundle.RequestFeatures))
		for _, name := range bundle.RequestFeatures {
			m[name] = rng.Float64() * 128
		}
		pts[i] = m
	}
	return pts
}

func genCollective(rng *rand.Rand, cfg Config, op int) *bundle.Collective {
	// Random feature subset of the request features, sorted ascending like
	// the shipped bundle's subsets.
	perm := rng.Perm(len(bundle.RequestFeatures))[:cfg.Features]
	sort.Ints(perm)
	names := make([]string, cfg.Features)
	imp := make([]bundle.Importance, cfg.Features)
	for i, idx := range perm {
		names[i] = bundle.CanonicalFeatures[idx]
		imp[i] = bundle.Importance{Name: names[i], Index: idx, Importance: rng.Float64()}
	}

	f := &forest.Forest{NClasses: cfg.Classes, Trees: make([]forest.Tree, cfg.Trees)}
	for t := range f.Trees {
		f.Trees[t] = genTree(rng, cfg)
	}
	return &bundle.Collective{
		Op:             op,
		FullImportance: imp,
		Features:       perm,
		FeatureNames:   names,
		Forest:         f,
		CVAUC:          0.5 + rng.Float64()/2,
	}
}

// genTree builds one tree as a flat, forward-pointing node array: each
// internal node is appended before its children, so child indices always
// exceed the parent's and forest.Validate's cycle check passes by
// construction.
func genTree(rng *rand.Rand, cfg Config) forest.Tree {
	var nodes []forest.Node
	var build func(depth int) int
	build = func(depth int) int {
		idx := len(nodes)
		nodes = append(nodes, forest.Node{})
		// Terminate at max depth, or early with 15% probability so tree
		// shapes are irregular like real learned trees.
		if depth <= 0 || rng.Float64() < 0.15 {
			nodes[idx] = forest.Node{F: -1, D: leafDistribution(rng, cfg.Classes)}
			return idx
		}
		feat := rng.Intn(cfg.Features)
		thresh := rng.Float64() * 128 // same range Points draws values from
		l := build(depth - 1)
		r := build(depth - 1)
		nodes[idx] = forest.Node{F: feat, T: thresh, L: l, R: r}
		return idx
	}
	build(cfg.Depth)
	return forest.Tree{Nodes: nodes}
}

// leafDistribution returns a normalized class distribution. The +0.01
// floor keeps every class mass strictly positive so exact argmax ties are
// vanishingly unlikely.
func leafDistribution(rng *rand.Rand, classes int) []float64 {
	d := make([]float64, classes)
	sum := 0.0
	for i := range d {
		d[i] = rng.Float64() + 0.01
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}
