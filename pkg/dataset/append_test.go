package dataset

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// appendTable mirrors the broadcast entry of the serving algorithm table
// without importing perfmodel (which itself imports dataset).
func appendTable() map[string][]string {
	return map[string][]string{
		"broadcast": {"binomial_tree", "pipeline", "scatter_allgather"},
	}
}

func appendRecord(nodes float64) *Record {
	return &Record{
		Collective: "broadcast",
		Features: map[string]float64{
			"num_nodes": nodes, "ppn": 8, "log2_msg_size": 12,
		},
		LatenciesUS: map[string]float64{"binomial_tree": 10, "pipeline": 20, "scatter_allgather": 30},
	}
}

func TestAppendJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	algos := appendTable()
	w, err := OpenAppendJSONL(path, algos)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(appendRecord(float64(i + 1))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := w.Records(); got != 5 {
		t.Fatalf("Records() = %d, want 5", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ds, err := ReadFile(path, algos)
	if err != nil {
		t.Fatalf("readback: %v", err)
	}
	if ds.Len() != 5 {
		t.Fatalf("readback got %d examples, want 5", ds.Len())
	}
	for i := range ds.Examples {
		if ds.Examples[i].Algorithm != "binomial_tree" {
			t.Fatalf("example %d labeled %q, want argmin binomial_tree", i, ds.Examples[i].Algorithm)
		}
	}

	// Reopen counts the existing records and keeps appending after them.
	w, err = OpenAppendJSONL(path, algos)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	if got := w.Records(); got != 5 {
		t.Fatalf("reopen Records() = %d, want 5", got)
	}
	if w.RecoveredBytes() != 0 {
		t.Fatalf("clean file reported %d recovered bytes", w.RecoveredBytes())
	}
	if err := w.Append(appendRecord(64)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if got := w.Records(); got != 6 {
		t.Fatalf("Records() after reopen append = %d, want 6", got)
	}
}

func TestAppendJSONLRecoversTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	algos := appendTable()
	w, err := OpenAppendJSONL(path, algos)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(appendRecord(float64(i + 1))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Simulate a crash mid-write: a record prefix with no terminating
	// newline at the tail of the file.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("reopen raw: %v", err)
	}
	torn := `{"collective":"broadcast","features":{"num_nodes":4`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	w, err = OpenAppendJSONL(path, algos)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer w.Close()
	if got := w.Records(); got != 3 {
		t.Fatalf("after recovery Records() = %d, want 3", got)
	}
	if got := w.RecoveredBytes(); got != int64(len(torn)) {
		t.Fatalf("RecoveredBytes() = %d, want %d", got, len(torn))
	}
	// The repaired file must read back cleanly and accept new appends.
	if err := w.Append(appendRecord(16)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	ds, err := ReadFile(path, algos)
	if err != nil {
		t.Fatalf("readback after recovery: %v", err)
	}
	if ds.Len() != 4 {
		t.Fatalf("readback got %d examples, want 4", ds.Len())
	}
}

func TestAppendJSONLRejectsCorruptCompleteLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	// A complete (newline-terminated) garbage line is corruption, not a
	// torn write; open must refuse rather than silently drop data.
	if err := os.WriteFile(path, []byte("{\"collective\":\"broadcast\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppendJSONL(path, appendTable()); err == nil {
		t.Fatal("open accepted a file with a corrupt complete line")
	}
}

func TestAppendJSONLValidatesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	algos := appendTable()
	w, err := OpenAppendJSONL(path, algos)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	bad := &Record{
		Collective:  "broadcast",
		Features:    map[string]float64{"not_canonical": 1},
		LatenciesUS: map[string]float64{"binomial_tree": 10},
	}
	if err := w.Append(bad); err == nil {
		t.Fatal("Append accepted a non-canonical feature")
	}
	if w.Records() != 0 {
		t.Fatalf("rejected append still counted: Records() = %d", w.Records())
	}
	unknown := appendRecord(2)
	unknown.LatenciesUS = map[string]float64{"no_such_algo": 5}
	if err := w.Append(unknown); err == nil {
		t.Fatal("Append accepted an unknown algorithm latency")
	}
}

func TestValidateRecordResolvesLabels(t *testing.T) {
	algos := appendTable()
	rec := appendRecord(4)
	cls, name, err := ValidateRecord(algos, rec)
	if err != nil {
		t.Fatalf("ValidateRecord: %v", err)
	}
	if name != "binomial_tree" || cls != 0 {
		t.Fatalf("got class %d %q, want 0 binomial_tree", cls, name)
	}
	both := appendRecord(4)
	both.Algorithm = "pipeline"
	if _, _, err := ValidateRecord(algos, both); err == nil {
		t.Fatal("accepted record with both algorithm and latencies")
	}
	explicit := appendRecord(4)
	explicit.LatenciesUS = nil
	explicit.Algorithm = "pipeline"
	cls, name, err = ValidateRecord(algos, explicit)
	if err != nil || name != "pipeline" || cls != 1 {
		t.Fatalf("explicit algorithm: got class %d %q err %v, want 1 pipeline", cls, name, err)
	}
}

// fmtKey is the formula Key has always produced, spelled with fmt.
func fmtKey(collective string, features map[string]float64) string {
	names := make([]string, 0, len(features))
	for n := range features {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(collective)
	for _, n := range names {
		fmt.Fprintf(&b, "|%s=%x", n, math.Float64bits(features[n]))
	}
	return b.String()
}

// TestKeyBytes pins Key byte for byte: dedup identities and the feedback
// store's duplicate index depend on it, so a faster encoder must not move
// a single byte.
func TestKeyBytes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if got, want := Key("broadcast", map[string]float64{"ppn": 0, "log2_msg_size": negZero}),
		"broadcast|log2_msg_size=8000000000000000|ppn=0"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	cases := []map[string]float64{
		nil,
		{"num_nodes": 0},
		{"num_nodes": negZero},
		{"num_nodes": math.SmallestNonzeroFloat64},
		{"num_nodes": math.MaxFloat64},
		{"num_nodes": -math.MaxFloat64},
		// Inserted out of order: map iteration order must not matter.
		{"thread_count": 96, "ppn": 48, "mem_bw_gbs": 204.8, "log2_msg_size": 22, "num_nodes": 32, "a": 1e-310},
	}
	for _, features := range cases {
		for _, coll := range []string{"", "alltoall"} {
			if got, want := Key(coll, features), fmtKey(coll, features); got != want {
				t.Errorf("Key(%q, %v) = %q, want %q", coll, features, got, want)
			}
		}
	}
}
