package train_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/serve"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// TestEndToEndTrainWatchServe closes the full offline-train → publish →
// hot-swap → serve loop the paper implies:
//
//  1. sweep the analytical perfmodel for labels and hold out a test split,
//  2. train a forest bundle and write it atomically to a watched path,
//  3. let the serving stack's bundle watcher discover, validate, and
//     promote it,
//  4. serve live Select calls through the stack's selector,
//  5. require >= 90% agreement between served decisions and the
//     analytical oracle on the held-out points, deterministically.
func TestEndToEndTrainWatchServe(t *testing.T) {
	const seed = 17

	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if dropped := ds.Dedup(); dropped != 0 {
		t.Fatalf("default sweep contains %d duplicate points", dropped)
	}
	trainSet, heldOut := ds.Split(0.2, seed)

	b, reports, err := train.TrainBundle(trainSet, train.BundleConfig{
		Config:    train.Config{Trees: 32, MaxDepth: 14, Seed: seed},
		TrainedOn: []string{"perfmodel-sweep-v1"},
	})
	if err != nil {
		t.Fatalf("TrainBundle: %v", err)
	}
	for _, r := range reports {
		t.Logf("trained %s: %d examples, %d trees, OOB %.4f", r.Collective, r.Examples, r.Trees, r.OOBAccuracy)
	}

	// Serve through the stack pmlmpi-server runs with -bundle-watch. It
	// boots on a synthetic bundle; publishing the trained one over it must
	// be discovered, validated and promoted by the watcher. WriteFile is
	// atomic, so the watcher can never observe a half-written bundle.
	cfg := serve.Defaults()
	cfg.Bundle = filepath.Join(t.TempDir(), "bundle.json")
	cfg.BundleWatch, cfg.WatchInterval = true, 2*time.Millisecond
	if _, err := synth.MustNew(synth.Config{Seed: seed}).WriteFile(cfg.Bundle); err != nil {
		t.Fatal(err)
	}
	st, err := serve.New(cfg, obs.NewForTest())
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer st.Close()
	written, err := b.WriteFile(cfg.Bundle)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	want := mustHash(t, written)
	deadline := time.Now().Add(5 * time.Second)
	for st.Registry.ActiveGeneration().Hash() != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	gen := st.Registry.ActiveGeneration()
	if gen.Hash() != want {
		t.Fatal("watcher never promoted the trained bundle")
	}

	ctx, sel := context.Background(), st.Selector
	agree := map[string]int{}
	total := map[string]int{}
	for i := range heldOut.Examples {
		ex := &heldOut.Examples[i]
		d, err := sel.Select(ctx, ex.Collective, ex.Features)
		if err != nil {
			t.Fatalf("Select(%s) example %d: %v", ex.Collective, i, err)
		}
		if d.Generation != gen.ID() {
			t.Fatalf("decision generation %d, want %d", d.Generation, gen.ID())
		}
		// The oracle label was computed at sweep time; recompute to prove
		// the oracle itself is deterministic.
		if oracle := perfmodel.Oracle(ex.Collective, ex.Features); oracle != ex.Label {
			t.Fatalf("oracle drifted: example %d labeled %d, recomputed %d", i, ex.Label, oracle)
		}
		total[ex.Collective]++
		if d.Class == ex.Label {
			agree[ex.Collective]++
		}
	}
	overallAgree, overallTotal := 0, 0
	for coll, n := range total {
		frac := float64(agree[coll]) / float64(n)
		t.Logf("served agreement %s: %d/%d = %.4f", coll, agree[coll], n, frac)
		if frac < 0.90 {
			t.Errorf("collective %s: served decisions agree with the analytical oracle on %.2f%% of held-out points, want >= 90%%",
				coll, frac*100)
		}
		overallAgree += agree[coll]
		overallTotal += n
	}
	if overallTotal == 0 {
		t.Fatal("held-out split is empty")
	}
	if frac := float64(overallAgree) / float64(overallTotal); frac < 0.90 {
		t.Errorf("overall served agreement %.4f < 0.90", frac)
	}

	// Served algorithm names decode through the default table for every
	// perfmodel collective (class order pinned by a perfmodel test).
	for i := range heldOut.Examples {
		ex := &heldOut.Examples[i]
		if ex.Collective != "broadcast" {
			continue
		}
		d, err := sel.Select(ctx, "broadcast", ex.Features)
		if err != nil {
			t.Fatal(err)
		}
		names, err := perfmodel.AlgorithmNames("broadcast")
		if err != nil {
			t.Fatal(err)
		}
		if d.Algorithm != names[d.Class] {
			t.Errorf("served algorithm %q but class %d is %q in the perfmodel table", d.Algorithm, d.Class, names[d.Class])
		}
		break
	}
}

// mustHash parses raw bundle bytes and returns their content hash.
func mustHash(t *testing.T, data []byte) string {
	t.Helper()
	b, err := bundle.Parse(data)
	if err != nil {
		t.Fatalf("parse written bundle: %v", err)
	}
	return b.Hash
}
