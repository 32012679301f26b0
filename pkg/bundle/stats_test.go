package bundle

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFeatureStatsRoundTrip: feature_stats survives both codecs exactly —
// JSON Encode/Parse, binary EncodeBinary/ParseBinary, and format-sniffing
// ParseAny.
func TestFeatureStatsRoundTrip(t *testing.T) {
	b, err := Load("testdata/trained_small.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats == nil {
		t.Fatal("trained fixture lost its feature_stats")
	}
	if b.Stats.Source != "train/sweep" {
		t.Errorf("source = %q", b.Stats.Source)
	}
	if len(b.Stats.Features) != len(RequestFeatures) {
		t.Errorf("stats cover %d features, want all %d request features", len(b.Stats.Features), len(RequestFeatures))
	}
	for _, name := range b.Stats.FeatureNames() {
		d := b.Stats.Features[name]
		if d.Total() == 0 || len(d.Counts) != len(d.Edges)+1 {
			t.Errorf("%s dist malformed: %d edges, %d counts, total %d", name, len(d.Edges), len(d.Counts), d.Total())
		}
	}

	jsonBytes, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse(jsonBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON.Stats, b.Stats) {
		t.Error("feature_stats changed across JSON round-trip")
	}

	bin, err := b.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ParseBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin.Stats, b.Stats) {
		t.Error("feature_stats changed across binary round-trip")
	}

	for _, raw := range [][]byte{jsonBytes, bin} {
		any, err := ParseAny(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(any.Stats, b.Stats) {
			t.Error("feature_stats changed through ParseAny")
		}
	}
}

// TestFeatureStatsAbsenceTolerated: bundles written before the field
// existed parse with nil Stats and keep it nil across both codecs.
func TestFeatureStatsAbsenceTolerated(t *testing.T) {
	b, err := Parse([]byte(minimalBundle))
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats != nil {
		t.Fatalf("legacy bundle grew stats: %+v", b.Stats)
	}
	jsonBytes, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(jsonBytes), "feature_stats") {
		t.Error("Encode emits a feature_stats key for a stats-less bundle")
	}
	bin, err := b.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ParseBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.Stats != nil {
		t.Error("binary round-trip invented feature_stats")
	}
}

func TestFeatureDistBucketOf(t *testing.T) {
	d := FeatureDist{Edges: []float64{1, 4, 16}, Counts: []uint64{1, 1, 1, 1}}
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 0}, {1.5, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3}, {math.Inf(1), 3}, {math.NaN(), 3},
	} {
		if got := d.BucketOf(tc.v); got != tc.want {
			t.Errorf("BucketOf(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestValidateFeatureStatsRejections(t *testing.T) {
	good := func() *FeatureStats {
		return &FeatureStats{
			Source: "t",
			Features: map[string]FeatureDist{
				"num_nodes": {Edges: []float64{1, 2}, Counts: []uint64{1, 2, 3}},
			},
		}
	}
	if err := validateFeatureStats(good()); err != nil {
		t.Fatalf("valid stats rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*FeatureStats)
		wantSub string
	}{
		{"empty table", func(s *FeatureStats) { s.Features = nil }, "empty features table"},
		{"non-canonical feature", func(s *FeatureStats) {
			s.Features["bogus_feature"] = s.Features["num_nodes"]
		}, "not a canonical feature"},
		{"no edges", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Counts: []uint64{1}}
		}, "no bin edges"},
		{"nan edge", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Edges: []float64{1, math.NaN()}, Counts: []uint64{1, 1, 1}}
		}, "not finite"},
		{"inf edge", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Edges: []float64{math.Inf(-1), 1}, Counts: []uint64{1, 1, 1}}
		}, "not finite"},
		{"descending edges", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Edges: []float64{2, 1}, Counts: []uint64{1, 1, 1}}
		}, "strictly ascending"},
		{"duplicate edges", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Edges: []float64{1, 1}, Counts: []uint64{1, 1, 1}}
		}, "strictly ascending"},
		{"count length mismatch", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Edges: []float64{1, 2}, Counts: []uint64{1, 2}}
		}, "counts for"},
		{"zero total", func(s *FeatureStats) {
			s.Features["num_nodes"] = FeatureDist{Edges: []float64{1}, Counts: []uint64{0, 0}}
		}, "zero total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutate(s)
			err := validateFeatureStats(s)
			if err == nil {
				t.Fatal("invalid stats accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}
