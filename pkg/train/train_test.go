package train_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// xorProblem builds a 2-feature, 2-class dataset a depth-2 tree cannot
// solve but a forest of deeper trees learns exactly: class = (x0 > 5) XOR
// (x1 > 5) over a 20×20 grid.
func xorProblem() (x [][]float64, y []int) {
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			a, b := float64(i)/2, float64(j)/2
			cls := 0
			if (a > 5) != (b > 5) {
				cls = 1
			}
			x = append(x, []float64{a, b})
			y = append(y, cls)
		}
	}
	return x, y
}

func TestTrainForestLearnsXOR(t *testing.T) {
	x, y := xorProblem()
	res, err := train.TrainForest(x, y, 2, train.Config{Trees: 24, MaxDepth: 8, Seed: 3, FeatureFrac: 1})
	if err != nil {
		t.Fatalf("TrainForest: %v", err)
	}
	correct := 0
	for i := range x {
		pred, err := res.Forest.Predict(x[i])
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if pred.Class == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.97 {
		t.Errorf("training accuracy %.3f, want >= 0.97", acc)
	}
	if res.OOBAccuracy < 0.9 || res.OOBAccuracy > 1 {
		t.Errorf("OOB accuracy %.3f outside plausible [0.9, 1]", res.OOBAccuracy)
	}
	sum := 0.0
	for _, v := range res.Importance {
		if v < 0 {
			t.Errorf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sums to %v, want 1", sum)
	}
}

// TestTrainForestDeterministic: equal seeds yield byte-identical forests
// regardless of worker count; different seeds differ.
func TestTrainForestDeterministic(t *testing.T) {
	x, y := xorProblem()
	marshal := func(cfg train.Config) []byte {
		res, err := train.TrainForest(x, y, 2, cfg)
		if err != nil {
			t.Fatalf("TrainForest: %v", err)
		}
		data, err := json.Marshal(res.Forest)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := train.Config{Trees: 12, MaxDepth: 6, Seed: 11}
	serial, parallel := base, base
	serial.Workers = 1
	parallel.Workers = 8
	a, b := marshal(serial), marshal(parallel)
	if !bytes.Equal(a, b) {
		t.Fatal("Workers=1 and Workers=8 produced different forests for the same seed")
	}
	other := base
	other.Seed = 12
	if bytes.Equal(a, marshal(other)) {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestTrainForestValidation(t *testing.T) {
	cases := []struct {
		name    string
		x       [][]float64
		y       []int
		classes int
		wantErr string
	}{
		{"no samples", nil, nil, 2, "no samples"},
		{"length mismatch", [][]float64{{1}}, []int{0, 1}, 2, "labels"},
		{"no features", [][]float64{{}}, []int{0}, 2, "no features"},
		{"ragged rows", [][]float64{{1, 2}, {1}}, []int{0, 0}, 2, "features, want"},
		{"nan feature", [][]float64{{math.NaN()}}, []int{0}, 2, "non-finite"},
		{"label out of range", [][]float64{{1}}, []int{5}, 2, "outside"},
		{"bad classes", [][]float64{{1}}, []int{0}, 0, "nClasses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := train.TrainForest(tc.x, tc.y, tc.classes, train.Config{Trees: 2, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestConfigValidate: every out-of-range field is named, NaN included,
// and zero keeps meaning "default". TrainForest and TrainBundle refuse an
// invalid Config instead of substituting defaults.
func TestConfigValidate(t *testing.T) {
	valid := []train.Config{
		{},
		{Trees: 48, MaxDepth: 14, MinSamplesSplit: 2, MinSamplesLeaf: 1, FeatureFrac: 0.8, Workers: 1},
		{FeatureFrac: 1, Seed: -7},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	cases := []struct {
		name string
		cfg  train.Config
		want []string
	}{
		{"negative trees", train.Config{Trees: -5}, []string{"Trees (-trees) = -5"}},
		{"negative depth", train.Config{MaxDepth: -1}, []string{"MaxDepth (-depth) = -1"}},
		{"min split 1", train.Config{MinSamplesSplit: 1}, []string{"MinSamplesSplit = 1"}},
		{"negative min leaf", train.Config{MinSamplesLeaf: -1}, []string{"MinSamplesLeaf (-min-samples-leaf) = -1"}},
		{"feature frac NaN", train.Config{FeatureFrac: math.NaN()}, []string{"FeatureFrac (-feature-frac) = NaN"}},
		{"feature frac above 1", train.Config{FeatureFrac: 7}, []string{"FeatureFrac (-feature-frac) = 7"}},
		{"feature frac negative", train.Config{FeatureFrac: -0.5}, []string{"FeatureFrac (-feature-frac) = -0.5"}},
		{"negative workers", train.Config{Workers: -2}, []string{"Workers = -2"}},
		{"all bad", train.Config{Trees: -5, MaxDepth: -1, MinSamplesSplit: 1, MinSamplesLeaf: -1, FeatureFrac: math.NaN(), Workers: -2},
			[]string{"Trees", "MaxDepth", "MinSamplesSplit", "MinSamplesLeaf", "FeatureFrac", "Workers"}},
	}
	x, y := xorProblem()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil", tc.cfg)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not contain %q", err, w)
				}
			}
			if _, err := train.TrainForest(x, y, 2, tc.cfg); err == nil {
				t.Error("TrainForest accepted the invalid config")
			}
		})
	}
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{Collectives: []string{"broadcast"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := train.TrainBundle(ds, train.BundleConfig{Config: train.Config{FeatureFrac: math.NaN()}}); err == nil {
		t.Error("TrainBundle accepted FeatureFrac NaN")
	}
}

// TestTrainForestSingleClass: a degenerate all-one-class input still
// yields a valid forest (all leaves vote that class).
func TestTrainForestSingleClass(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{1, 1, 1, 1}
	res, err := train.TrainForest(x, y, 3, train.Config{Trees: 4, Seed: 1})
	if err != nil {
		t.Fatalf("TrainForest: %v", err)
	}
	pred, err := res.Forest.Predict([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Class != 1 {
		t.Errorf("predicted class %d, want 1", pred.Class)
	}
}

// sweepBundle trains a small bundle from perfmodel labels, shared by the
// round-trip and registry tests.
func sweepBundle(t testing.TB, seed int64) (*bundle.Bundle, *dataset.Dataset) {
	t.Helper()
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{
		Collectives:  []string{"allgather", "broadcast"},
		Nodes:        []float64{1, 2, 4, 8, 16},
		PPN:          []float64{1, 4, 16},
		Log2MsgSizes: []float64{2, 6, 10, 14, 18, 22},
		Systems:      perfmodel.DefaultSystems[:2],
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	tr, te := ds.Split(0.25, seed)
	b, reports, err := train.TrainBundle(tr, train.BundleConfig{
		Config:    train.Config{Trees: 16, MaxDepth: 10, Seed: seed},
		TrainedOn: []string{"perfmodel-sweep"},
	})
	if err != nil {
		t.Fatalf("TrainBundle: %v", err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.OOBAccuracy < 0.8 {
			t.Errorf("%s: OOB accuracy %.3f suspiciously low", r.Collective, r.OOBAccuracy)
		}
	}
	return b, te
}

// TestTrainedBundleRoundTripsByteFaithfully is the acceptance-criteria
// pin: a trained bundle encodes, parses with no validation errors, and
// re-encodes to identical bytes (hence an identical content hash).
func TestTrainedBundleRoundTripsByteFaithfully(t *testing.T) {
	b, _ := sweepBundle(t, 5)
	data, err := b.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	parsed, err := bundle.Parse(data)
	if err != nil {
		t.Fatalf("trained bundle failed Parse: %v", err)
	}
	again, err := parsed.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("Encode -> Parse -> Encode is not byte-faithful")
	}
	if got := parsed.CollectiveNames(); len(got) != 2 || got[0] != "allgather" || got[1] != "broadcast" {
		t.Fatalf("parsed collectives = %v", got)
	}
	ag := parsed.Collectives["allgather"]
	if ag.Forest.NClasses != 4 || len(ag.Forest.Trees) != 16 {
		t.Errorf("allgather forest classes=%d trees=%d, want 4/16", ag.Forest.NClasses, len(ag.Forest.Trees))
	}
	if len(ag.Features) != len(bundle.CanonicalFeatures) {
		t.Errorf("feature subset %d, want full canonical %d (sweep emits every feature)",
			len(ag.Features), len(bundle.CanonicalFeatures))
	}
}

func TestTrainBundleDeterministic(t *testing.T) {
	a, _ := sweepBundle(t, 9)
	b, _ := sweepBundle(t, 9)
	da, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("same seed trained different bundles")
	}
}

func TestEvaluateHeldOutAccuracy(t *testing.T) {
	b, te := sweepBundle(t, 13)
	acc, err := train.Evaluate(b, te)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	for coll, a := range acc {
		if a < 0.85 {
			t.Errorf("%s: held-out accuracy %.3f < 0.85", coll, a)
		}
	}
	if len(acc) != 2 {
		t.Fatalf("accuracy for %d collectives, want 2", len(acc))
	}
}

func TestTrainBundleEmptyDataset(t *testing.T) {
	if _, _, err := train.TrainBundle(dataset.New(perfmodel.Table()), train.BundleConfig{}); err == nil {
		t.Fatal("empty dataset must fail")
	}
}
