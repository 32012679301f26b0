// Package perfmodel implements analytical Hockney-style (α-β) cost models
// for the candidate algorithms of the MPI collectives PML-MPI selects
// among, in the tradition of Nuriyev & Lastovetsky's analytical selection
// work. Each model maps the canonical feature vector (cluster shape plus
// hardware bandwidth/latency proxies) to an estimated completion time; the
// argmin across a collective's candidates is a physically grounded label.
//
// The package serves two roles: a deterministic label generator for the
// training pipeline (Sweep produces grids of labeled examples without a
// real cluster), and a ground-truth oracle that end-to-end tests compare
// served decisions against.
package perfmodel

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
)

// Params are the derived α-β model inputs for one configuration: process
// count, message size, and the effective latency/bandwidth terms blended
// from the intra-node and inter-node fabrics.
type Params struct {
	// P is the total number of ranks (num_nodes × ppn, at least 1).
	P int
	// M is the message size in bytes (2^log2_msg_size).
	M float64
	// Alpha is the effective per-message latency in seconds.
	Alpha float64
	// Beta is the effective per-byte transfer time in seconds.
	Beta float64
	// BetaMem is the per-byte local memory-copy time, charged to
	// algorithms that shuffle data through intermediate buffers (Bruck).
	BetaMem float64
}

// Baseline fabric constants. These are plausible modern-cluster magnitudes;
// the models only need relative ordering to produce meaningful labels, and
// every derivation below is deterministic in the input features.
const (
	interNodeAlpha = 1.5e-6 // seconds, base network injection latency
	intraNodeAlpha = 4.0e-7 // seconds, shared-memory latency
	numaAlphaStep  = 0.10   // relative α penalty per extra NUMA domain
)

// feature reads a named feature with a default for absent entries, so the
// models degrade gracefully on sparse feature maps (the sweep always emits
// the full set).
func feature(f map[string]float64, name string, def float64) float64 {
	if v, ok := f[name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		return v
	}
	return def
}

// DeriveParams blends the canonical features into α-β model parameters.
// With a single node everything moves over shared memory; with many nodes
// the effective terms approach the network fabric's. The blend weight is
// the probability that a uniformly random peer lives on another node,
// 1 − 1/num_nodes.
func DeriveParams(f map[string]float64) Params {
	nodes := math.Max(1, feature(f, "num_nodes", 1))
	ppn := math.Max(1, feature(f, "ppn", 1))
	p := int(nodes * ppn)
	if p < 1 {
		p = 1
	}
	m := math.Exp2(feature(f, "log2_msg_size", 10))

	// Inter-node fabric: link_speed_gbps per lane × link_width lanes.
	lanes := math.Max(1, feature(f, "link_width", 4))
	gbps := math.Max(1, feature(f, "link_speed_gbps", 25)) * lanes
	betaNet := 8.0 / (gbps * 1e9) // seconds per byte

	// Intra-node fabric: memory bandwidth shared by the ranks on a node.
	memBW := math.Max(1, feature(f, "mem_bw_gbs", 100)) * 1e9
	betaMem := 1.0 / memBW

	numa := math.Max(1, feature(f, "numa_nodes", 1))
	alphaNet := interNodeAlpha * (1 + numaAlphaStep*(numa-1)/4)
	alphaMem := intraNodeAlpha * (1 + numaAlphaStep*(numa-1))

	// Blend by the remote-peer probability.
	remote := 1 - 1/nodes
	return Params{
		P:       p,
		M:       m,
		Alpha:   remote*alphaNet + (1-remote)*alphaMem,
		Beta:    remote*betaNet + (1-remote)*betaMem,
		BetaMem: betaMem,
	}
}

// Algorithm is one candidate implementation of a collective: a class index
// (its position in the collective's candidate list), a name matching the
// selector's algorithm tables, and its cost model.
type Algorithm struct {
	Name string
	Cost func(Params) float64
}

// log2Ceil returns ceil(log2(p)) for p ≥ 1.
func log2Ceil(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// isPow2 reports whether p is a power of two.
func isPow2(p int) bool { return p > 0 && p&(p-1) == 0 }

// pipelineSegments is the segment count the segmented-pipeline broadcast
// model assumes: the near-optimal s* = sqrt((p−2)·β·m / α) that balances
// the latency and serialization terms, clamped so segments stay at least
// 1 KiB (below that, per-packet overheads swamp the model).
func pipelineSegments(pr Params) float64 {
	fill := math.Max(1, float64(pr.P-2))
	s := math.Sqrt(fill * pr.Beta * pr.M / pr.Alpha)
	maxS := math.Max(1, math.Floor(pr.M/1024))
	if s < 1 {
		return 1
	}
	if s > maxS {
		return maxS
	}
	return math.Round(s)
}

// Collectives maps each supported collective to its candidate algorithms
// in class-index order. The order is frozen: class indices are what the
// trainer learns and what the serving selector's algorithm tables assume.
var Collectives = map[string][]Algorithm{
	"broadcast": {
		// Binomial tree: ceil(log2 p) rounds, full message per round.
		// Latency-optimal; loses at large m where pipelining amortizes β.
		{Name: "binomial_tree", Cost: func(pr Params) float64 {
			r := log2Ceil(pr.P)
			return r * (pr.Alpha + pr.Beta*pr.M)
		}},
		// Segmented pipeline (chain): fills after p−2 steps, then streams
		// one segment per step. Bandwidth-optimal for long messages.
		{Name: "pipeline", Cost: func(pr Params) float64 {
			if pr.P <= 1 {
				return 0
			}
			s := pipelineSegments(pr)
			steps := float64(pr.P-2) + s
			return steps * (pr.Alpha + pr.Beta*pr.M/s)
		}},
		// Van de Geijn scatter + allgather: 2(p−1)/p·βm bandwidth term at
		// the price of log p + p − 1 latencies. Wins mid-size messages.
		{Name: "scatter_allgather", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			r := log2Ceil(pr.P)
			return (r+p-1)*pr.Alpha + 2*(p-1)/p*pr.Beta*pr.M
		}},
	},
	"allgather": {
		// Recursive doubling: log p rounds for powers of two; non-powers
		// pay extra fix-up rounds and fragmented transfers. Distance
		// doubles each round, so far exchanges congest shared links.
		{Name: "recursive_doubling", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			rounds := log2Ceil(pr.P)
			congest := 1 + 0.10*log2Ceil(pr.P)
			if !isPow2(pr.P) {
				rounds = math.Floor(math.Log2(p)) + 2
				congest *= 1.5
			}
			return rounds*pr.Alpha + (p-1)*pr.M*pr.Beta*congest
		}},
		// Bruck: ceil(log2 p) rounds for any p, plus local rotation
		// copies through the staging buffer.
		{Name: "bruck", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			congest := 1 + 0.15*log2Ceil(pr.P)
			rotate := p * pr.M * pr.BetaMem
			return log2Ceil(pr.P)*pr.Alpha + (p-1)*pr.M*pr.Beta*congest + rotate
		}},
		// Ring: p−1 nearest-neighbor steps, contention-free, so the pure
		// (p−1)βm bandwidth term. Wins long messages.
		{Name: "ring", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			return (p-1)*pr.Alpha + (p-1)*pr.M*pr.Beta
		}},
		// Neighbor exchange: p/2 pairwise phases, even p only (odd p falls
		// back to an inefficient fix-up, modeled as a 2× stretch).
		{Name: "neighbor_exchange", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			cost := (p/2)*pr.Alpha + (p-1)*pr.M*pr.Beta
			if pr.P%2 != 0 {
				cost *= 2
			}
			return cost
		}},
	},
	"alltoall": {
		// Linear: post every send/recv at once. Minimal handshaking but
		// p simultaneous flows congest the fabric as p grows.
		{Name: "linear", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			congest := 1 + p/64
			return (p-1)*0.5*pr.Alpha + (p-1)*pr.M*pr.Beta*congest
		}},
		// Pairwise exchange: p−1 scheduled phases, contention-free when p
		// is even; odd p breaks the perfect matching.
		{Name: "pairwise", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			congest := 1.0
			if pr.P%2 != 0 {
				congest = 1.3
			}
			return (p - 1) * (pr.Alpha + pr.M*pr.Beta*congest)
		}},
		// Modified Bruck: log p rounds moving p/2 blocks each — wins the
		// latency-bound regime, pays log p extra bandwidth.
		{Name: "modified_bruck", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			r := log2Ceil(pr.P)
			rotate := p * pr.M * pr.BetaMem
			return r*pr.Alpha + (p/2)*pr.M*r*pr.Beta + rotate
		}},
		// Linear with per-peer synchronization: serializes handshakes
		// (1.5α per peer) but caps in-flight flows, so congestion stays
		// mild for large p.
		{Name: "linear_sync", Cost: func(pr Params) float64 {
			p := float64(pr.P)
			congest := 1 + p/512
			return (p - 1) * (1.5*pr.Alpha + pr.M*pr.Beta*congest)
		}},
	},
}

// CollectiveNames returns the supported collectives in sorted order.
func CollectiveNames() []string {
	return []string{"allgather", "alltoall", "broadcast"}
}

// AlgorithmNames returns the class-ordered algorithm names of a collective.
func AlgorithmNames(collective string) ([]string, error) {
	algos, ok := Collectives[collective]
	if !ok {
		return nil, fmt.Errorf("perfmodel: unknown collective %q (have %v)", collective, CollectiveNames())
	}
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names, nil
}

// Table returns the full collective → class-ordered algorithm-name table,
// the shape dataset ingestion and the selector's Config.Algorithms expect.
func Table() map[string][]string {
	t := make(map[string][]string, len(Collectives))
	for name := range Collectives {
		names, _ := AlgorithmNames(name)
		t[name] = names
	}
	return t
}

// Cost evaluates one candidate's model on a feature map.
func Cost(collective string, class int, features map[string]float64) (float64, error) {
	algos, ok := Collectives[collective]
	if !ok {
		return 0, fmt.Errorf("perfmodel: unknown collective %q", collective)
	}
	if class < 0 || class >= len(algos) {
		return 0, fmt.Errorf("perfmodel: collective %q has no class %d (has %d)", collective, class, len(algos))
	}
	return algos[class].Cost(DeriveParams(features)), nil
}

// Costs evaluates every candidate of a collective, in class order.
func Costs(collective string, features map[string]float64) ([]float64, error) {
	algos, ok := Collectives[collective]
	if !ok {
		return nil, fmt.Errorf("perfmodel: unknown collective %q", collective)
	}
	pr := DeriveParams(features)
	out := make([]float64, len(algos))
	for i, a := range algos {
		out[i] = a.Cost(pr)
	}
	return out, nil
}

// Best returns the argmin-cost class for a collective on the given
// features; ties break toward the lowest class index, so the oracle is
// fully deterministic.
func Best(collective string, features map[string]float64) (int, error) {
	costs, err := Costs(collective, features)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, c := range costs {
		if c < costs[best] {
			best = i
		}
	}
	return best, nil
}

// Oracle adapts Best into the dataset oracle signature used by agreement
// checks: it panics on unknown collectives, which sweep-produced examples
// never reference.
func Oracle(collective string, features map[string]float64) int {
	cls, err := Best(collective, features)
	if err != nil {
		panic(err)
	}
	return cls
}

// System is one hardware profile a sweep labels points on. The fields feed
// the canonical feature map; anything the α-β derivation ignores
// (clock, cache, PCIe) still varies per system so trained forests see the
// full canonical feature space.
type System struct {
	Name         string
	MaxClockGHz  float64
	L3CacheMiB   float64
	MemBWGBs     float64
	CoreCount    float64
	Sockets      float64
	NUMANodes    float64
	PCIeLanes    float64
	PCIeGen      float64
	LinkSpeedGbs float64
	LinkWidth    float64
}

// Features renders the system profile plus a job shape into a full
// canonical feature map.
func (s System) Features(numNodes, ppn, log2MsgSize float64) map[string]float64 {
	return map[string]float64{
		"num_nodes":       numNodes,
		"ppn":             ppn,
		"log2_msg_size":   log2MsgSize,
		"max_clock_ghz":   s.MaxClockGHz,
		"l3_cache_mib":    s.L3CacheMiB,
		"mem_bw_gbs":      s.MemBWGBs,
		"core_count":      s.CoreCount,
		"thread_count":    s.CoreCount * 2,
		"sockets":         s.Sockets,
		"numa_nodes":      s.NUMANodes,
		"pcie_lanes":      s.PCIeLanes,
		"pcie_gen":        s.PCIeGen,
		"link_speed_gbps": s.LinkSpeedGbs,
		"link_width":      s.LinkWidth,
	}
}

// DefaultSystems are three hardware profiles spanning a fat-node/fast-
// fabric box, a balanced cluster, and a thin-node/slow-fabric cluster, so
// sweeps cover meaningfully different α-β regimes.
var DefaultSystems = []System{
	{Name: "hdr-fat", MaxClockGHz: 3.5, L3CacheMiB: 256, MemBWGBs: 350, CoreCount: 64,
		Sockets: 2, NUMANodes: 8, PCIeLanes: 128, PCIeGen: 4, LinkSpeedGbs: 50, LinkWidth: 4},
	{Name: "edr-mid", MaxClockGHz: 2.9, L3CacheMiB: 64, MemBWGBs: 180, CoreCount: 32,
		Sockets: 2, NUMANodes: 2, PCIeLanes: 64, PCIeGen: 3, LinkSpeedGbs: 25, LinkWidth: 4},
	{Name: "eth-thin", MaxClockGHz: 2.4, L3CacheMiB: 32, MemBWGBs: 90, CoreCount: 16,
		Sockets: 1, NUMANodes: 1, PCIeLanes: 32, PCIeGen: 3, LinkSpeedGbs: 10, LinkWidth: 1},
}

// SweepConfig shapes a labeled feature-space sweep. Zero values take the
// documented defaults, so SweepConfig{} is a usable full sweep.
type SweepConfig struct {
	// Collectives to sweep (default: all supported).
	Collectives []string
	// Nodes and PPN, when both are set, make the job-shape axis their
	// grid. When both are empty each system gets its own DrawShapes.
	// Setting only one is an error.
	Nodes []float64
	PPN   []float64
	// Log2MsgSizes is the message-size axis (default 2, 4, …, 22).
	Log2MsgSizes []float64
	// Systems are the hardware profiles labeled (default DefaultSystems).
	Systems []System
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Collectives) == 0 {
		c.Collectives = CollectiveNames()
	}
	if len(c.Log2MsgSizes) == 0 {
		c.Log2MsgSizes = []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}
	}
	if len(c.Systems) == 0 {
		c.Systems = DefaultSystems
	}
	return c
}

// Shape is one job shape: nodes and ranks per node.
type Shape struct {
	Nodes, PPN float64
}

// Sweep shape-draw defaults: DefaultShapes distinct integer shapes per
// system, nodes and ppn each in 1..MaxShapeAxis.
const (
	DefaultShapes = 60
	MaxShapeAxis  = 32
	shapeSeed     = 1
)

// DrawShapes returns the default sweep's job shapes for each of n systems:
// DefaultShapes distinct integer (nodes, ppn) pairs per system, uniform in
// 1..MaxShapeAxis on both axes, from one fixed-seed stream. The draw holds
// odd, even and power-of-two rank counts at every scale, which the derived
// parity features need to learn from; a grid of powers of two holds odd P
// only where nodes and ppn are both odd.
func DrawShapes(n int) [][]Shape {
	rng := rand.New(rand.NewSource(shapeSeed))
	out := make([][]Shape, n)
	for i := range out {
		seen := make(map[Shape]bool, DefaultShapes)
		shapes := make([]Shape, 0, DefaultShapes)
		for len(shapes) < DefaultShapes {
			s := Shape{Nodes: float64(1 + rng.Intn(MaxShapeAxis)), PPN: float64(1 + rng.Intn(MaxShapeAxis))}
			if !seen[s] {
				seen[s] = true
				shapes = append(shapes, s)
			}
		}
		out[i] = shapes
	}
	return out
}

// shapes returns the job shapes of each system: the Nodes × PPN grid, or
// the default draw.
func (c SweepConfig) shapes() ([][]Shape, error) {
	switch {
	case len(c.Nodes) == 0 && len(c.PPN) == 0:
		return DrawShapes(len(c.Systems)), nil
	case len(c.Nodes) == 0 || len(c.PPN) == 0:
		return nil, fmt.Errorf("perfmodel: sweep sets %d nodes and %d ppn values; set both axes or neither",
			len(c.Nodes), len(c.PPN))
	}
	grid := make([]Shape, 0, len(c.Nodes)*len(c.PPN))
	for _, nodes := range c.Nodes {
		for _, ppn := range c.PPN {
			grid = append(grid, Shape{Nodes: nodes, PPN: ppn})
		}
	}
	out := make([][]Shape, len(c.Systems))
	for i := range out {
		out[i] = grid
	}
	return out, nil
}

// Sweep enumerates the configured shapes and sizes in deterministic order
// and labels every point with the argmin-cost algorithm. The result is a
// fully validated dataset: every example carries the complete request
// feature map and a class index into the collective's candidate list.
func Sweep(cfg SweepConfig) (*dataset.Dataset, error) {
	cfg = cfg.withDefaults()
	shapes, err := cfg.shapes()
	if err != nil {
		return nil, err
	}
	ds := dataset.New(Table())
	for _, coll := range cfg.Collectives {
		names, err := AlgorithmNames(coll)
		if err != nil {
			return nil, err
		}
		for si, sys := range cfg.Systems {
			for _, sh := range shapes[si] {
				for _, lm := range cfg.Log2MsgSizes {
					f := sys.Features(sh.Nodes, sh.PPN, lm)
					cls, err := Best(coll, f)
					if err != nil {
						return nil, err
					}
					ds.Examples = append(ds.Examples, dataset.Example{
						Collective: coll,
						Features:   f,
						Label:      cls,
						Algorithm:  names[cls],
					})
				}
			}
		}
	}
	return ds, nil
}
