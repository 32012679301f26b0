package bundle

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the bundle parser. The contract under
// fuzzing is the package's core promise: malformed, truncated, or hostile
// input must yield a descriptive error — never a panic — and anything the
// parser accepts must be a fully validated bundle. Seed corpus lives in
// testdata/fuzz/FuzzParse (regenerate with `go test -run=FuzzParse
// -fuzz=FuzzParse -fuzztime=30s ./pkg/bundle`).
func FuzzParse(f *testing.F) {
	f.Add([]byte(minimalBundle))
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"version": "pml-mpi/1"}`))
	f.Add([]byte(`{"version": "pml-mpi/2", "x": {}}`))
	f.Add([]byte(`{"version": "pml-mpi/1", "bad": {"features": [99], "feature_names": ["?"]}}`))
	f.Add([]byte(minimalBundle[:len(minimalBundle)/2])) // truncated mid-forest
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Parse(data) // must never panic
		if err != nil {
			if b != nil {
				t.Error("Parse returned both a bundle and an error")
			}
			return
		}
		// Anything accepted must be fully valid and usable.
		if b.Version != SupportedVersion {
			t.Errorf("accepted bundle has version %q", b.Version)
		}
		if len(b.Collectives) == 0 {
			t.Error("accepted bundle has no collectives")
		}
		for name, c := range b.Collectives {
			if c.Forest == nil {
				t.Fatalf("collective %q accepted without a forest", name)
			}
			if err := c.Forest.Validate(len(c.Features)); err != nil {
				t.Errorf("collective %q accepted with invalid forest: %v", name, err)
			}
		}
	})
}

// fuzzVectorNames is the feature subset FuzzVector extracts against.
var fuzzVectorNames = []string{"num_nodes", "ppn", "log2_msg_size"}

// FuzzVector feeds arbitrary JSON-encoded feature maps to feature-vector
// extraction. Extraction must never panic: it either orders every required
// feature into the vector, or reports exactly which one is missing. Seed
// corpus lives in testdata/fuzz/FuzzVector.
func FuzzVector(f *testing.F) {
	f.Add([]byte(`{"num_nodes": 4, "ppn": 16, "log2_msg_size": 20}`))
	f.Add([]byte(`{"num_nodes": 4}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"num_nodes": 1e308, "ppn": -0, "log2_msg_size": 0.0000001, "extra": 9}`))
	f.Add([]byte(`{"NUM_NODES": 4, "ppn": 16, "log2_msg_size": 20}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var features map[string]float64
		if json.Unmarshal(data, &features) != nil {
			return // not a feature map; extraction is unreachable in production
		}
		c := &Collective{
			Name:         "fuzz",
			Features:     []int{0, 1, 2},
			FeatureNames: fuzzVectorNames,
		}
		x, err := c.Vector(features) // must never panic
		if err != nil {
			if !strings.Contains(err.Error(), "missing feature") {
				t.Errorf("unexpected error shape: %v", err)
			}
			return
		}
		if len(x) != len(fuzzVectorNames) {
			t.Fatalf("vector has %d entries, want %d", len(x), len(fuzzVectorNames))
		}
		for i, name := range fuzzVectorNames {
			v, ok := features[name]
			if !ok {
				t.Fatalf("Vector succeeded but %q is absent from the input map", name)
			}
			// NaN != NaN, so compare bit-identity via the map value itself.
			if x[i] != v && !(v != v && x[i] != x[i]) {
				t.Errorf("x[%d] = %v, map has %v", i, x[i], v)
			}
		}
		// The derived features come from num_nodes and ppn alone, are 0 or
		// 1, and ignore any value sent under their own names.
		d := &Collective{Name: "fuzz", Features: []int{14, 15}, FeatureNames: []string{"ranks_odd", "ranks_pow2"}}
		xd, err := d.Vector(features)
		if err != nil {
			t.Fatalf("derived features of a map with num_nodes and ppn: %v", err)
		}
		p := math.Round(features["num_nodes"] * features["ppn"])
		for i, want := range []bool{math.Mod(p, 2) == 1, p >= 1 && !math.IsInf(p, 0) && p == math.Exp2(math.Floor(math.Log2(p)))} {
			if (xd[i] == 1) != want || (xd[i] != 0 && xd[i] != 1) {
				t.Errorf("%s = %v for P = %v", d.FeatureNames[i], xd[i], p)
			}
		}
	})
}
