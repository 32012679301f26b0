package bundle

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// Parse's two paths and the comparison between their results, for the
// external tests (bundle_test) that build inputs with pkg/synth.
var (
	ParseCanonical  = parseCanonical
	ParseReflective = parseReflective
	SameBundle      = sameBundle
)

// sameBundle reports whether a and b hold the same model: every field but
// LoadedAt and the collectives' unexported compile state.
func sameBundle(a, b *Bundle) bool {
	if a.Version != b.Version || a.Path != b.Path || a.SizeBytes != b.SizeBytes || a.Hash != b.Hash ||
		!reflect.DeepEqual(a.TrainedOn, b.TrainedOn) || !reflect.DeepEqual(a.Stats, b.Stats) ||
		len(a.Collectives) != len(b.Collectives) {
		return false
	}
	for name, ca := range a.Collectives {
		cb, ok := b.Collectives[name]
		if !ok || ca.Name != cb.Name || ca.Op != cb.Op || ca.CVAUC != cb.CVAUC ||
			!reflect.DeepEqual(ca.FullImportance, cb.FullImportance) ||
			!reflect.DeepEqual(ca.Features, cb.Features) ||
			!reflect.DeepEqual(ca.FeatureNames, cb.FeatureNames) ||
			!reflect.DeepEqual(ca.Forest, cb.Forest) {
			return false
		}
	}
	return true
}

// checkFastVsReflective holds the scanner to encoding/json on data: it
// declines or returns the reflective path's bundle, and Parse accepts
// exactly what the reflective path accepts.
func checkFastVsReflective(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := parseReflective(data)
	if got := parseCanonical(data); got != nil {
		if wantErr != nil {
			t.Fatalf("scanner accepts a bundle encoding/json refuses (%v):\n%q", wantErr, data)
		}
		if !sameBundle(got, want) {
			t.Fatalf("scanner and encoding/json decode different bundles from\n%q", data)
		}
	}
	b, err := Parse(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Parse error %v, reflective path error %v, on\n%q", err, wantErr, data)
	}
	if err == nil {
		want.Hash, want.SizeBytes = b.Hash, b.SizeBytes
		if !sameBundle(b, want) {
			t.Fatalf("Parse and encoding/json decode different bundles from\n%q", data)
		}
	}
}

// FuzzParseFastVsReflective feeds arbitrary bytes to both paths of Parse.
// Beside the seeds below, its corpus in
// testdata/fuzz/FuzzParseFastVsReflective holds declinedSpellings. Run it
// with `go test -run='^$' -fuzz='^FuzzParseFastVsReflective$'
// -fuzztime=20s ./pkg/bundle`.
func FuzzParseFastVsReflective(f *testing.F) {
	f.Add([]byte(minimalBundle))
	// Every member the scanner reads, full_importance, importance, oob,
	// feature_stats and an ignored one included.
	f.Add([]byte(`{"version":"pml-mpi/1","trained_on":["A"],"feature_stats":{"source":"s",` +
		`"features":{"ppn":{"edges":[1,2],"counts":[0,1,2]}}},"bcast":{"op":1,` +
		`"full_importance":[{"name":"ppn","index":1,"importance":1}],"features":[1],"feature_names":["ppn"],` +
		`"forest":{"trees":[{"nodes":[{"f":0,"t":-0.5,"l":1,"r":2},{"f":-1,"t":0,"l":0,"r":0,"d":[1]},` +
		`{"f":-1,"t":0,"l":0,"r":0,"d":[1e-3]}],"nclasses":1}],"nclasses":1,"importance":[1],"oob":0.5},"cv_auc":1}}`))
	for _, cut := range []int{1, 60, 200, 330, len(minimalBundle) - 2} {
		f.Add([]byte(minimalBundle[:cut]))
	}
	f.Add([]byte(minimalBundle + "x"))
	f.Add([]byte(`{"version":"pml-mpi/1","a":{}}`))
	f.Fuzz(checkFastVsReflective)
}

// declinedSpellings each respell one member of minimalBundle as only
// encoding/json reads it, or not at all. They seed the fuzzer's corpus
// (testdata/fuzz/FuzzParseFastVsReflective/seed_<name>).
var declinedSpellings = []struct{ name, old, new string }{
	{"case-folded node key", `"f": 0, "t": 10`, `"F": 0, "t": 10`},
	{"case-folded forest key", `"nclasses": 2`, `"NClasses": 2`},
	{"case-folded collective key", `"cv_auc": 0.9`, `"CV_AUC": 0.9`},
	{"duplicate node key", `"f": 0, "t": 10`, `"f": 0, "f": 0, "t": 10`},
	{"duplicate forest", `"cv_auc": 0.9`, `"forest": {"trees": [], "nclasses": 2}, "cv_auc": 0.9`},
	{"duplicate collective", `"version": "pml-mpi/1",`, `"version": "pml-mpi/1", "allgather": {},`},
	{"escaped key", `"nclasses": 2`, `"nclasse\u0073": 2`},
	{"escaped version", `"pml-mpi/1"`, `"pml-mpi\/1"`},
	{"escaped collective name", `"allgather": {`, `"allgathe\u0072": {`},
	{"null distribution", `"d": [1, 0]`, `"d": null`},
	{"null forest", `"cv_auc": 0.9`, `"forest": null, "cv_auc": 0.9`},
	{"exponent in an int field", `"f": 0, "t": 10`, `"f": 1e0, "t": 10`},
	{"fraction in an int field", `"l": 1, "r": 2`, `"l": 1.0, "r": 2`},
	{"leading zeros", `"l": 1, "r": 2`, `"l": 01, "r": 2`},
	{"sixteen-digit int", `"r": 2}`, `"r": 1000000000000002}`},
}

// TestCanonicalSpellingsDecline holds the scanner to declining each of
// declinedSpellings, and Parse to agreeing with the reflective path on it.
func TestCanonicalSpellingsDecline(t *testing.T) {
	for _, tc := range declinedSpellings {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(minimalBundle, tc.old) {
				t.Fatalf("minimalBundle has no %q", tc.old)
			}
			data := []byte(strings.Replace(minimalBundle, tc.old, tc.new, 1))
			if parseCanonical(data) != nil {
				t.Errorf("scanner took %s", tc.name)
			}
			checkFastVsReflective(t, data)
		})
	}
}

// liveHeap returns the heap held live by what parse returns.
func liveHeap(t *testing.T, parse func() *Bundle) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := parse()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if b == nil {
		t.Fatal("parse failed")
	}
	runtime.KeepAlive(b)
	return after.HeapAlloc - before.HeapAlloc
}

// TestCanonicalHeapNoLarger guards peak_rss_mib: the scanner's bundle,
// nodes and leaf distributions cut at their exact size, holds no more live
// heap than encoding/json's.
func TestCanonicalHeapNoLarger(t *testing.T) {
	data, err := os.ReadFile(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	fast := liveHeap(t, func() *Bundle { return parseCanonical(data) })
	slow := liveHeap(t, func() *Bundle { b, _ := parseReflective(data); return b })
	runtime.KeepAlive(data) // or the second measurement sees it freed
	t.Logf("live heap: scanner %.1f MiB, encoding/json %.1f MiB", float64(fast)/(1<<20), float64(slow)/(1<<20))
	if fast > slow {
		t.Errorf("scanner's bundle holds %d bytes live, encoding/json's %d", fast, slow)
	}
}

// TestCanonicalSizesExactly pins how the scanner holds no slack: each
// tree's nodes at their exact count, and each forest's leaf distributions
// cut back to back, at their exact length, from one slab.
func TestCanonicalSizesExactly(t *testing.T) {
	data, err := os.ReadFile(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	b := parseCanonical(data)
	if b == nil {
		t.Fatal("scanner declined the paper bundle")
	}
	for name, c := range b.Collectives {
		var next uintptr // where the forest's next distribution must start
		for ti, tree := range c.Forest.Trees {
			if cap(tree.Nodes) != len(tree.Nodes) {
				t.Fatalf("%s tree %d: %d nodes in room for %d", name, ti, len(tree.Nodes), cap(tree.Nodes))
			}
			for ni, n := range tree.Nodes {
				if len(n.D) == 0 {
					continue
				}
				at := uintptr(unsafe.Pointer(unsafe.SliceData(n.D)))
				if cap(n.D) != len(n.D) || next != 0 && at != next {
					t.Fatalf("%s tree %d node %d: distribution not cut at its length from the forest's slab", name, ti, ni)
				}
				next = at + uintptr(len(n.D))*unsafe.Sizeof(n.D[0])
			}
		}
	}
}

// BenchmarkParse times the paper bundle through each of Parse's paths and,
// for scale, as PMLB. Validation and compilation are included throughout.
func BenchmarkParse(b *testing.B) {
	data, err := os.ReadFile(realBundle)
	if err != nil {
		b.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	pmlb, err := parsed.EncodeBinary()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		parse func() error
	}{
		{"canonical", func() error {
			if parseCanonical(data) == nil {
				return errors.New("scanner declined the paper bundle")
			}
			return nil
		}},
		{"reflective", func() error { _, err := parseReflective(data); return err }},
		{"pmlb", func() error { _, err := ParseBinary(pmlb); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
