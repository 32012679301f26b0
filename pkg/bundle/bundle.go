// Package bundle loads and validates the pre-trained PML-MPI model bundle
// (.pmlbench/bundle_all_full.json): one random forest per collective plus
// feature metadata and provenance (systems the model was trained on).
// Loading is defensive — truncated or malformed files yield descriptive
// errors, never panics — because the bundle is the single artifact the
// whole selector depends on.
package bundle

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
)

// SupportedVersion is the bundle schema version this loader understands.
const SupportedVersion = "pml-mpi/1"

// CanonicalFeatures is the full feature space, in index order, that bundle
// feature indices refer to. Each collective's forest uses a subset.
// Indices 0–13 are the request features a client sends (RequestFeatures);
// 14–15 are derived from the rank count P = round(num_nodes × ppn) by
// FeatureValue and are never sent. The analytical cost models stretch
// neighbor exchange and pairwise exchange at odd P and penalise recursive
// doubling off powers of two, and no threshold on num_nodes or ppn alone
// can tell those shapes apart.
var CanonicalFeatures = []string{
	"num_nodes",       // 0
	"ppn",             // 1
	"log2_msg_size",   // 2
	"max_clock_ghz",   // 3
	"l3_cache_mib",    // 4
	"mem_bw_gbs",      // 5
	"core_count",      // 6
	"thread_count",    // 7
	"sockets",         // 8
	"numa_nodes",      // 9
	"pcie_lanes",      // 10
	"pcie_gen",        // 11
	"link_speed_gbps", // 12
	"link_width",      // 13
	"ranks_odd",       // 14: 1 when P is odd
	"ranks_pow2",      // 15: 1 when P is a power of two
}

// RequestFeatures are the canonical features a request carries: all but
// the derived ones. Training-distribution stats, drift monitoring and
// synthetic points range over these.
var RequestFeatures = CanonicalFeatures[:numRequestFeatures:numRequestFeatures]

const numRequestFeatures = 14

// MaxFeatures is the widest feature vector any collective can have. The
// fixed buffers sized by it (the selector's stack vector, the flight
// recorder's captured vector, and bench/ladder.go's xbuf) hold every
// subset of CanonicalFeatures without reaching for the heap.
const MaxFeatures = 16

// FeatureValue returns canonical feature idx of a request's feature map: a
// request feature as sent, a derived one computed from num_nodes and ppn.
// missing names the absent feature that idx needs, or is "" when v is
// valid. It is the one place derived features are computed, for serving
// (VectorInto) and training alike.
func FeatureValue(features map[string]float64, idx int) (v float64, missing string) {
	if idx < numRequestFeatures {
		name := CanonicalFeatures[idx]
		v, ok := features[name]
		if !ok {
			return 0, name
		}
		return v, ""
	}
	nodes, ok := features["num_nodes"]
	if !ok {
		return 0, "num_nodes"
	}
	ppn, ok := features["ppn"]
	if !ok {
		return 0, "ppn"
	}
	// Float arithmetic throughout, so a non-finite or huge P yields 0
	// rather than an integer-conversion surprise.
	p := math.Round(nodes * ppn)
	var yes bool
	if idx == numRequestFeatures {
		yes = math.Mod(p, 2) == 1
	} else {
		frac, _ := math.Frexp(p)
		yes = p >= 1 && frac == 0.5
	}
	if yes {
		return 1, ""
	}
	return 0, ""
}

// CheckRequestFeatures refuses a request feature map that sends a derived
// feature: those are computed from num_nodes and ppn, never taken from a
// client. It costs one map lookup per derived feature.
func CheckRequestFeatures(features map[string]float64) error {
	for _, name := range CanonicalFeatures[numRequestFeatures:] {
		if _, sent := features[name]; sent {
			return fmt.Errorf("feature %q is derived from num_nodes and ppn and must not be sent", name)
		}
	}
	return nil
}

// Importance is one entry of a collective's full feature-importance table.
type Importance struct {
	Name       string  `json:"name"`
	Index      int     `json:"index"`
	Importance float64 `json:"importance"`
}

// Collective is the per-collective model: the trained forest and the
// feature subset it consumes.
type Collective struct {
	Name           string         `json:"-"`
	Op             int            `json:"op"`
	FullImportance []Importance   `json:"full_importance"`
	Features       []int          `json:"features"`
	FeatureNames   []string       `json:"feature_names"`
	Forest         *forest.Forest `json:"forest"`
	CVAUC          float64        `json:"cv_auc"`

	// compiled is the SoA evaluator derived from Forest, built at most once
	// (eagerly by Parse/ParseBinary so load-time pays the cost, lazily via
	// Compiled for bundles assembled in memory). Unexported so JSON
	// round-trips ignore it.
	compileOnce sync.Once
	compiled    *compiled.Forest
	compileErr  error
	// released is set by Bundle.Release once Forest has been dropped and
	// compiled is the collective's only forest.
	released bool
}

// Compiled returns the collective's compiled SoA forest, building it on
// first use. It returns nil if compilation failed, which only an in-memory
// bundle can see — Parse and ParseBinary surface that failure at load time.
// The compiled forest is the one serving evaluator: a selection on a
// collective without one fails.
func (c *Collective) Compiled() *compiled.Forest {
	c.compileOnce.Do(func() {
		c.compiled, c.compileErr = compiled.Compile(c.Forest, len(c.Features))
	})
	return c.compiled
}

// NumTrees returns the ensemble size. It reads the compiled forest, the one
// a released collective still holds, and falls back to the pointer trees
// only for an in-memory collective whose compile failed.
func (c *Collective) NumTrees() int {
	if cf := c.Compiled(); cf != nil {
		return cf.NumTrees()
	}
	return len(c.Forest.Trees)
}

// NClasses returns the number of classes the forest votes over, from the
// same source as NumTrees.
func (c *Collective) NClasses() int {
	if cf := c.Compiled(); cf != nil {
		return cf.NClasses()
	}
	return c.Forest.NClasses
}

// ErrReleased is why a released bundle cannot be encoded: it holds only
// the compiled arenas, which have no wire format of their own.
var ErrReleased = errors.New("pointer trees were released after compile; a serving generation cannot be re-encoded")

// Release drops the pointer trees of every collective that compiled, so its
// compiled arena becomes its only forest. The trees are the larger copy
// (the paper bundle's take 16 MiB of live heap, its arenas under 4 MiB) and
// nothing that serves reads them. A collective whose compile failed keeps
// its trees. Afterwards Forest is nil on every released collective,
// Compiled returns the arena built before the release, and Encode,
// EncodeBinary, WriteFile and WriteFileBinary fail with ErrReleased. Call it
// before the bundle is shared with other goroutines.
func (b *Bundle) Release() {
	for _, c := range b.Collectives {
		if c.Compiled() != nil {
			c.Forest = nil
			c.released = true
		}
	}
}

// Vector orders the named feature map into the vector layout the forest
// expects. Every request feature in FeatureNames must be present; a derived
// one is computed from num_nodes and ppn (FeatureValue), which must be.
func (c *Collective) Vector(features map[string]float64) ([]float64, error) {
	x := make([]float64, len(c.FeatureNames))
	if err := c.VectorInto(x, features); err != nil {
		return nil, err
	}
	return x, nil
}

// VectorInto is Vector without the allocation: it fills x, which must have
// exactly len(FeatureNames) entries, for hot paths that reuse a buffer.
func (c *Collective) VectorInto(x []float64, features map[string]float64) error {
	if len(x) != len(c.FeatureNames) {
		return fmt.Errorf("collective %q: vector buffer has %d entries, need %d",
			c.Name, len(x), len(c.FeatureNames))
	}
	for i, name := range c.FeatureNames {
		var v float64
		missing := name
		if i < len(c.Features) && c.Features[i] >= numRequestFeatures {
			v, missing = FeatureValue(features, c.Features[i])
		} else if sent, ok := features[name]; ok {
			v, missing = sent, ""
		}
		if missing != "" {
			return fmt.Errorf("collective %q: missing feature %q (need %v)",
				c.Name, missing, c.requestNames())
		}
		x[i] = v
	}
	return nil
}

// requestNames lists the features a request must carry for c: its feature
// names less the derived ones, which num_nodes and ppn yield.
func (c *Collective) requestNames() []string {
	names := make([]string, 0, len(c.FeatureNames))
	for i, n := range c.FeatureNames {
		if i >= len(c.Features) || c.Features[i] < numRequestFeatures {
			names = append(names, n)
		}
	}
	return names
}

// Bundle is a fully loaded and validated model bundle.
type Bundle struct {
	Version     string
	TrainedOn   []string
	Collectives map[string]*Collective
	// Stats is the optional training-distribution snapshot (reserved
	// "feature_stats" key). Nil for bundles written before it existed.
	Stats     *FeatureStats
	Path      string
	SizeBytes int64
	LoadedAt  time.Time
	// Hash is the hex SHA-256 of the raw bundle bytes. The registry keys
	// generation identity and change detection on it.
	Hash string
}

// ShortHash returns the first 12 hex digits of Hash for logs and UIs, or
// "" when the bundle was built in memory without raw bytes.
func (b *Bundle) ShortHash() string {
	if len(b.Hash) < 12 {
		return b.Hash
	}
	return b.Hash[:12]
}

// Collective returns the model for the named collective.
func (b *Bundle) Collective(name string) (*Collective, bool) {
	c, ok := b.Collectives[name]
	return c, ok
}

// CollectiveNames returns the sorted names of all collectives in the bundle.
func (b *Bundle) CollectiveNames() []string {
	names := make([]string, 0, len(b.Collectives))
	for n := range b.Collectives {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Load reads, parses, and validates a bundle file in either encoding
// (JSON or the compact binary format, sniffed by magic).
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read bundle %s: %w", path, err)
	}
	b, err := ParseAny(data)
	if err != nil {
		return nil, fmt.Errorf("bundle %s: %w", path, err)
	}
	b.Path = path
	b.SizeBytes = int64(len(data))
	return b, nil
}

// Parse decodes and validates bundle JSON. Truncated or malformed input
// returns a descriptive error. A bundle of the canonical shape is decoded
// by a hand-written scanner (scan.go); anything else, errors included,
// by encoding/json, which defines the format.
func Parse(data []byte) (*Bundle, error) {
	b := parseCanonical(data)
	if b == nil {
		var err error
		if b, err = parseReflective(data); err != nil {
			return nil, err
		}
	}
	b.LoadedAt = time.Now()
	b.Hash = fmt.Sprintf("%x", sha256.Sum256(data))
	b.SizeBytes = int64(len(data))
	return b, nil
}

// parseReflective is Parse by encoding/json. It leaves the provenance
// fields to Parse.
func parseReflective(data []byte) (*Bundle, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("parse: bundle file is empty")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parse: malformed or truncated bundle JSON (%d bytes): %w", len(data), err)
	}

	b := &Bundle{Collectives: make(map[string]*Collective)}

	verRaw, ok := raw["version"]
	if !ok {
		return nil, fmt.Errorf("parse: bundle missing \"version\" field")
	}
	if err := json.Unmarshal(verRaw, &b.Version); err != nil {
		return nil, fmt.Errorf("parse: bad \"version\" field: %w", err)
	}
	if b.Version != SupportedVersion {
		return nil, fmt.Errorf("unsupported bundle version %q (this build supports %q)", b.Version, SupportedVersion)
	}
	if toRaw, ok := raw["trained_on"]; ok {
		if err := json.Unmarshal(toRaw, &b.TrainedOn); err != nil {
			return nil, fmt.Errorf("parse: bad \"trained_on\" field: %w", err)
		}
	}
	if fsRaw, ok := raw["feature_stats"]; ok {
		var fs FeatureStats
		if err := json.Unmarshal(fsRaw, &fs); err != nil {
			return nil, fmt.Errorf("parse: bad \"feature_stats\" field: %w", err)
		}
		if err := validateFeatureStats(&fs); err != nil {
			return nil, fmt.Errorf("validate: %w", err)
		}
		b.Stats = &fs
	}

	for key, msg := range raw {
		if key == "version" || key == "trained_on" || key == "feature_stats" {
			continue
		}
		c := &Collective{Name: key}
		if err := json.Unmarshal(msg, c); err != nil {
			return nil, fmt.Errorf("parse: collective %q: %w", key, err)
		}
		if err := validateCollective(c); err != nil {
			return nil, fmt.Errorf("validate: collective %q: %w", key, err)
		}
		if c.Compiled() == nil {
			return nil, fmt.Errorf("validate: collective %q: %w", key, c.compileErr)
		}
		b.Collectives[key] = c
	}
	if len(b.Collectives) == 0 {
		return nil, fmt.Errorf("validate: bundle contains no collectives")
	}
	return b, nil
}

func validateCollective(c *Collective) error {
	if c.released {
		return ErrReleased
	}
	if len(c.Features) == 0 {
		return fmt.Errorf("empty feature subset")
	}
	if len(c.Features) != len(c.FeatureNames) {
		return fmt.Errorf("features (%d) and feature_names (%d) length mismatch",
			len(c.Features), len(c.FeatureNames))
	}
	for i, idx := range c.Features {
		if idx < 0 || idx >= len(CanonicalFeatures) {
			return fmt.Errorf("feature index %d out of canonical range [0,%d)", idx, len(CanonicalFeatures))
		}
		if want := CanonicalFeatures[idx]; c.FeatureNames[i] != want {
			return fmt.Errorf("feature_names[%d]=%q does not match canonical feature %q at index %d",
				i, c.FeatureNames[i], want, idx)
		}
	}
	if c.Forest == nil {
		return fmt.Errorf("missing forest")
	}
	if err := c.Forest.Validate(len(c.Features)); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	return nil
}
