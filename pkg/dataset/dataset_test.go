package dataset

import (
	"math"
	"strings"
	"testing"
)

// testTable is the algorithm table the ingestion tests run against.
func testTable() map[string][]string {
	return map[string][]string{
		"allgather": {"recursive_doubling", "bruck", "ring"},
		"broadcast": {"binomial_tree", "pipeline"},
	}
}

const goodJSONL = `
# benchmark export, two collectives
{"collective":"allgather","features":{"num_nodes":4,"ppn":8,"log2_msg_size":10},"latency_us":{"recursive_doubling":12.5,"bruck":11.0,"ring":30.1}}
{"collective":"allgather","features":{"num_nodes":8,"ppn":8,"log2_msg_size":20},"latency_us":{"recursive_doubling":400,"bruck":410,"ring":220}}

{"collective":"broadcast","features":{"num_nodes":2,"ppn":4,"log2_msg_size":4},"algorithm":"binomial_tree"}
`

func TestReadJSONL(t *testing.T) {
	d, err := ReadJSONL(strings.NewReader(goodJSONL), testTable())
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if d.Len() != 3 {
		t.Fatalf("got %d examples, want 3", d.Len())
	}
	// Row 1: argmin is bruck (class 1).
	if d.Examples[0].Label != 1 || d.Examples[0].Algorithm != "bruck" {
		t.Errorf("row 1 label = %d/%q, want 1/bruck", d.Examples[0].Label, d.Examples[0].Algorithm)
	}
	// Row 2: argmin is ring (class 2).
	if d.Examples[1].Label != 2 || d.Examples[1].Algorithm != "ring" {
		t.Errorf("row 2 label = %d/%q, want 2/ring", d.Examples[1].Label, d.Examples[1].Algorithm)
	}
	// Row 3: explicit label.
	if d.Examples[2].Label != 0 || d.Examples[2].Collective != "broadcast" {
		t.Errorf("row 3 = %+v, want broadcast class 0", d.Examples[2])
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := []struct {
		name, row, wantErr string
	}{
		{"malformed json", `{"collective":`, "line 1"},
		{"unknown collective", `{"collective":"gather","features":{"ppn":2},"algorithm":"x"}`, "unknown collective"},
		{"unknown algorithm", `{"collective":"allgather","features":{"ppn":2},"algorithm":"hypercube"}`, "unknown algorithm"},
		{"no known latency algorithm", `{"collective":"allgather","features":{"ppn":2},"latency_us":{"hypercube":1}}`, "known algorithm"},
		{"unknown latency algorithm", `{"collective":"allgather","features":{"ppn":2},"latency_us":{"ring":2,"hypercube":1}}`, "unknown algorithm"},
		{"non-canonical feature", `{"collective":"allgather","features":{"gpu_count":2},"algorithm":"ring"}`, "not a canonical feature"},
		{"empty features", `{"collective":"allgather","features":{},"algorithm":"ring"}`, "empty feature map"},
		{"derived feature", `{"collective":"allgather","features":{"ppn":2,"ranks_odd":0},"algorithm":"ring"}`, `feature "ranks_odd" is derived`},
		{"no label", `{"collective":"allgather","features":{"ppn":2}}`, "neither an algorithm label nor latencies"},
		{"both labels", `{"collective":"allgather","features":{"ppn":2},"algorithm":"ring","latency_us":{"ring":1}}`, "both"},
		{"negative latency", `{"collective":"allgather","features":{"ppn":2},"latency_us":{"ring":-4}}`, "invalid latency"},
		{"unknown field", `{"collective":"allgather","features":{"ppn":2},"algorithm":"ring","extra":1}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.row), testTable())
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

const goodCSV = `collective,num_nodes,ppn,log2_msg_size,lat_recursive_doubling,lat_bruck,lat_ring,lat_binomial_tree,lat_pipeline
allgather,4,8,10,12.5,11.0,30.1,,
allgather,8,8,20,400,410,220,,
broadcast,2,4,4,,,,3.5,9.9
`

func TestReadCSV(t *testing.T) {
	d, err := ReadCSV(strings.NewReader(goodCSV), testTable())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if d.Len() != 3 {
		t.Fatalf("got %d examples, want 3", d.Len())
	}
	if d.Examples[0].Algorithm != "bruck" || d.Examples[1].Algorithm != "ring" {
		t.Errorf("labels = %q,%q, want bruck,ring", d.Examples[0].Algorithm, d.Examples[1].Algorithm)
	}
	if d.Examples[2].Algorithm != "binomial_tree" {
		t.Errorf("broadcast label = %q, want binomial_tree", d.Examples[2].Algorithm)
	}
	if got := d.Examples[0].Features["log2_msg_size"]; got != 10 {
		t.Errorf("feature log2_msg_size = %v, want 10", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	header := "collective,num_nodes,lat_ring\n"
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "no header"},
		{"bad header column", "collective,num_nodes,wat\nallgather,4,1\n", "neither a canonical feature"},
		{"no collective first", "num_nodes,lat_ring,ppn\n", "first header column"},
		{"derived feature column", "collective,num_nodes,ranks_pow2,lat_ring\n", `"ranks_pow2" is neither a canonical feature`},
		{"no latency columns", "collective,num_nodes,ppn\n", "no lat_"},
		{"wrong arity", header + "allgather,4\n", "wrong number of fields"},
		{"nan latency", header + "allgather,4,NaN\n", "invalid latency"},
		{"inf latency", header + "allgather,4,+Inf\n", "invalid latency"},
		{"bad feature cell", header + "allgather,four,1\n", "feature \"num_nodes\""},
		{"nan feature", header + "allgather,NaN,1\n", "non-finite"},
		{"no measured latency", header + "allgather,4,\n", "neither an algorithm label nor latencies"},
		{"unknown collective", header + "scatter,4,1\n", "unknown collective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.input), testTable())
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestDedup(t *testing.T) {
	d := New(testTable())
	f := map[string]float64{"num_nodes": 4, "ppn": 8}
	for i := 0; i < 3; i++ {
		d.Examples = append(d.Examples, Example{Collective: "allgather", Features: f, Label: 0, Algorithm: "recursive_doubling"})
	}
	d.Examples = append(d.Examples, Example{Collective: "broadcast", Features: f, Label: 1, Algorithm: "pipeline"})
	// Same values, different map instance: still a duplicate.
	d.Examples = append(d.Examples, Example{Collective: "allgather", Features: map[string]float64{"ppn": 8, "num_nodes": 4}, Label: 0, Algorithm: "recursive_doubling"})
	if dropped := d.Dedup(); dropped != 3 {
		t.Fatalf("Dedup dropped %d, want 3", dropped)
	}
	if d.Len() != 2 {
		t.Fatalf("after dedup len = %d, want 2", d.Len())
	}
	// -0 and 0 have different bit patterns: not duplicates.
	d2 := New(testTable())
	d2.Examples = append(d2.Examples,
		Example{Collective: "allgather", Features: map[string]float64{"ppn": 0}},
		Example{Collective: "allgather", Features: map[string]float64{"ppn": math.Copysign(0, -1)}})
	if dropped := d2.Dedup(); dropped != 0 {
		t.Fatalf("0 vs -0 deduped (%d dropped); keys must be bit-exact", dropped)
	}
}

func TestSplitStratifiedDeterministic(t *testing.T) {
	d := New(testTable())
	for i := 0; i < 100; i++ {
		d.Examples = append(d.Examples, Example{
			Collective: "allgather",
			Features:   map[string]float64{"ppn": float64(i)},
			Label:      i % 3,
		})
	}
	tr1, te1 := d.Split(0.2, 7)
	tr2, te2 := d.Split(0.2, 7)
	if tr1.Len() != tr2.Len() || te1.Len() != te2.Len() {
		t.Fatal("same seed produced different split sizes")
	}
	for i := range te1.Examples {
		if te1.Examples[i].Features["ppn"] != te2.Examples[i].Features["ppn"] {
			t.Fatal("same seed produced different test membership")
		}
	}
	if te1.Len() < 15 || te1.Len() > 25 {
		t.Errorf("test split has %d of 100, want ~20", te1.Len())
	}
	// Stratification: each class keeps roughly its share.
	counts := te1.LabelCounts("allgather")
	for cls, c := range counts {
		if c < 4 || c > 10 {
			t.Errorf("class %d has %d test examples, want ~6-7 (stratified)", cls, c)
		}
	}
	// No example lost or duplicated.
	if tr1.Len()+te1.Len() != d.Len() {
		t.Fatalf("split lost examples: %d + %d != %d", tr1.Len(), te1.Len(), d.Len())
	}
	// Different seed shuffles differently.
	_, te3 := d.Split(0.2, 8)
	same := true
	for i := range te1.Examples {
		if te1.Examples[i].Features["ppn"] != te3.Examples[i].Features["ppn"] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical test membership")
	}
}

func TestSplitEdgeFractions(t *testing.T) {
	d := New(testTable())
	d.Examples = append(d.Examples, Example{Collective: "allgather", Features: map[string]float64{"ppn": 1}})
	tr, te := d.Split(0, 1)
	if tr.Len() != 1 || te.Len() != 0 {
		t.Errorf("frac 0: %d/%d, want 1/0", tr.Len(), te.Len())
	}
	tr, te = d.Split(1, 1)
	if tr.Len() != 0 || te.Len() != 1 {
		t.Errorf("frac 1: %d/%d, want 0/1", tr.Len(), te.Len())
	}
	// A single-example stratum stays in train for interior fractions.
	tr, te = d.Split(0.5, 1)
	if tr.Len() != 1 || te.Len() != 0 {
		t.Errorf("singleton stratum: %d/%d, want 1/0", tr.Len(), te.Len())
	}
}

func TestMergeRejectsMismatchedTables(t *testing.T) {
	a := New(testTable())
	b := New(map[string][]string{"allgather": {"ring", "bruck", "recursive_doubling"}, "broadcast": {"binomial_tree", "pipeline"}})
	if err := a.Merge(b); err == nil {
		t.Fatal("merging datasets with reordered class tables must fail")
	}
	c := New(testTable())
	c.Examples = append(c.Examples, Example{Collective: "allgather", Features: map[string]float64{"ppn": 2}, Label: 1, Algorithm: "bruck"})
	if err := a.Merge(c); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Len() != 1 {
		t.Fatalf("after merge len = %d, want 1", a.Len())
	}
}
