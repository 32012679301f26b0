package bundle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const realBundle = "../../.pmlbench/bundle_all_full.json"

// minimalBundle is a syntactically complete, valid one-collective bundle
// used for truncation and mutation tests.
const minimalBundle = `{
  "version": "pml-mpi/1",
  "trained_on": ["SysA", "SysB"],
  "allgather": {
    "op": 0,
    "features": [2, 1],
    "feature_names": ["log2_msg_size", "ppn"],
    "forest": {
      "trees": [
        {"nodes": [
          {"f": 0, "t": 10, "l": 1, "r": 2},
          {"f": -1, "t": 0, "l": 0, "r": 0, "d": [1, 0]},
          {"f": -1, "t": 0, "l": 0, "r": 0, "d": [0, 1]}
        ]}
      ],
      "nclasses": 2
    },
    "cv_auc": 0.9
  }
}`

func TestLoadRealBundle(t *testing.T) {
	b, err := Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if b.Version != SupportedVersion {
		t.Errorf("version = %q, want %q", b.Version, SupportedVersion)
	}
	if len(b.TrainedOn) != 18 {
		t.Errorf("trained_on has %d systems, want 18", len(b.TrainedOn))
	}
	if got := b.CollectiveNames(); len(got) != 2 || got[0] != "allgather" || got[1] != "alltoall" {
		t.Fatalf("collectives = %v, want [allgather alltoall]", got)
	}
	ag, _ := b.Collective("allgather")
	if len(ag.Forest.Trees) != 60 || ag.Forest.NClasses != 4 {
		t.Errorf("allgather forest: trees=%d classes=%d, want 60/4",
			len(ag.Forest.Trees), ag.Forest.NClasses)
	}
	at, _ := b.Collective("alltoall")
	if len(at.Forest.Trees) != 100 || at.Forest.NClasses != 5 {
		t.Errorf("alltoall forest: trees=%d classes=%d, want 100/5",
			len(at.Forest.Trees), at.Forest.NClasses)
	}
	if b.SizeBytes == 0 || b.Path != realBundle {
		t.Errorf("provenance not recorded: size=%d path=%q", b.SizeBytes, b.Path)
	}
}

func TestLoadTruncatedFileReturnsDescriptiveError(t *testing.T) {
	// Simulate the seed capture being cut mid-stream: a prefix of the real
	// bundle is not valid JSON and must produce an error, never a panic.
	data, err := os.ReadFile(realBundle)
	if err != nil {
		t.Fatalf("read real bundle: %v", err)
	}
	for _, cut := range []int{1, 100, 4096, len(data) / 2} {
		path := filepath.Join(t.TempDir(), "truncated.json")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil {
			t.Fatalf("cut=%d: expected error for truncated bundle", cut)
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "parse") {
			t.Errorf("cut=%d: error %q should mention parse/truncation", cut, err)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	if err == nil || !strings.Contains(err.Error(), "read bundle") {
		t.Fatalf("expected read error, got %v", err)
	}
}

func TestParseMinimalBundle(t *testing.T) {
	b, err := Parse([]byte(minimalBundle))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, ok := b.Collective("allgather")
	if !ok {
		t.Fatal("missing allgather")
	}
	x, err := c.Vector(map[string]float64{"log2_msg_size": 12, "ppn": 4, "extra": 9})
	if err != nil {
		t.Fatalf("Vector: %v", err)
	}
	if x[0] != 12 || x[1] != 4 {
		t.Errorf("vector = %v, want [12 4]", x)
	}
}

func TestVectorMissingFeature(t *testing.T) {
	b, _ := Parse([]byte(minimalBundle))
	c, _ := b.Collective("allgather")
	_, err := c.Vector(map[string]float64{"log2_msg_size": 12})
	if err == nil || !strings.Contains(err.Error(), `missing feature "ppn"`) {
		t.Fatalf("expected missing-feature error, got %v", err)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"empty input", func(string) string { return "" }, "empty"},
		{"not json", func(string) string { return "not json at all" }, "malformed"},
		{"wrong version", func(s string) string {
			return strings.Replace(s, "pml-mpi/1", "pml-mpi/99", 1)
		}, "unsupported bundle version"},
		{"missing version", func(s string) string {
			return strings.Replace(s, `"version": "pml-mpi/1",`, "", 1)
		}, `missing "version"`},
		{"feature name mismatch", func(s string) string {
			return strings.Replace(s, `"log2_msg_size", "ppn"`, `"ppn", "log2_msg_size"`, 1)
		}, "does not match canonical"},
		{"feature index out of range", func(s string) string {
			return strings.Replace(s, `"features": [2, 1]`, `"features": [2, 99]`, 1)
		}, "out of canonical range"},
		{"length mismatch", func(s string) string {
			return strings.Replace(s, `"features": [2, 1]`, `"features": [2]`, 1)
		}, "length mismatch"},
		{"no collectives", func(string) string {
			return `{"version": "pml-mpi/1", "trained_on": []}`
		}, "no collectives"},
		{"bad leaf arity", func(s string) string {
			return strings.Replace(s, `"d": [1, 0]`, `"d": [1, 0, 0]`, 1)
		}, "leaf distribution"},
		{"cyclic tree", func(s string) string {
			return strings.Replace(s, `{"f": 0, "t": 10, "l": 1, "r": 2}`, `{"f": 0, "t": 10, "l": 0, "r": 2}`, 1)
		}, "point forward"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.mutate(minimalBundle)))
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
