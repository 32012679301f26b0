package retrain

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// shiftedGrid is the workload region the incumbent never saw: large node
// counts and large messages. The drift monitors, the feedback stream, and
// the post-promotion accuracy check all draw from it.
func shiftedGrid() (nodes, ppn, lms []float64) {
	return []float64{32, 64, 128}, []float64{16, 32}, []float64{16, 18, 20, 22, 24}
}

// shiftedAccuracy is the share of the shifted grid on which sel picks the
// oracle's algorithm.
func shiftedAccuracy(t *testing.T, sel *selector.Selector) float64 {
	t.Helper()
	nodes, ppns, lms := shiftedGrid()
	correct, total := 0, 0
	for _, n := range nodes {
		for _, p := range ppns {
			for _, lm := range lms {
				f := perfmodel.DefaultSystems[0].Features(n, p, lm)
				d, err := sel.Select(context.Background(), "broadcast", f)
				if err != nil {
					t.Fatalf("select: %v", err)
				}
				want, err := perfmodel.Best("broadcast", f)
				if err != nil {
					t.Fatal(err)
				}
				if d.Algorithm == sel.AlgorithmName("broadcast", want) {
					correct++
				}
				total++
			}
		}
	}
	return float64(correct) / float64(total)
}

// TestClosedLoopDriftRetrainPromote is the end-to-end proof of the
// self-tuning loop: a server stack (registry + shadow + health + selector)
// serving a model trained on a narrow region, and wrong on the shifted one,
// receives shifted traffic and matching oracle-labeled feedback; the drift
// monitors go ALERT, the controller fires, trains on the blended feedback,
// judges the candidate on held-out feedback, promotes it, and subsequent
// selections track the oracle on the shifted region.
func TestClosedLoopDriftRetrainPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop e2e trains models")
	}
	o := obs.NewForTest()
	shadow := registry.NewShadow(o, registry.ShadowConfig{Fraction: 1})
	reg := registry.New(o, registry.Config{Keep: 4, Shadow: shadow})
	// Large messages on a two-rank job, where pipeline wins: the incumbent
	// picks pipeline across the shifted region, where binomial_tree and
	// scatter_allgather win.
	g, err := reg.LoadData(trainIncumbent(t, perfmodel.SweepConfig{
		Collectives:  []string{"broadcast"},
		Nodes:        []float64{2},
		PPN:          []float64{2},
		Log2MsgSizes: []float64{20, 22},
		Systems:      perfmodel.DefaultSystems[:1],
	}, train.Config{Trees: 4, MaxDepth: 4, Seed: 3}), "incumbent")
	if err != nil {
		t.Fatalf("load incumbent: %v", err)
	}
	if _, err := reg.Promote(g.ID()); err != nil {
		t.Fatalf("promote incumbent: %v", err)
	}
	incGen := g.ID()

	health := modelhealth.New(o.Registry, modelhealth.Config{Window: 32})
	sel := selector.NewFromSource(reg, o, selector.Config{
		Shadow: shadow,
		Health: health,
	})
	shadow.SetNamer(sel.AlgorithmName)
	shadow.SetHealthSink(health.RecordShadow)
	shadow.Start()
	defer shadow.Stop()
	if acc := shiftedAccuracy(t, sel); acc >= 0.7 {
		t.Fatalf("incumbent oracle accuracy %.2f on the shifted grid; the test needs one below 0.70", acc)
	}

	store, err := feedback.NewStore(o.Registry, feedback.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("feedback store: %v", err)
	}
	defer store.Close()

	// Oracle-labeled feedback from the shifted region, plus one poisoned
	// record that must be quarantined, never trained on.
	nodes, ppns, lms := shiftedGrid()
	for _, n := range nodes {
		for _, p := range ppns {
			for _, lm := range lms {
				rec := oracleRecord(t, "broadcast", n, p, lm)
				if out, err := s2out(store.Add(rec)); out != feedback.OutcomeAccepted {
					t.Fatalf("seed feedback: outcome %s err %v", out, err)
				}
			}
		}
	}
	poison := oracleRecord(t, "broadcast", 16, 16, 10)
	worst, worstLat := "", 0.0
	for name, lat := range poison.LatenciesUS {
		if lat > worstLat {
			worst, worstLat = name, lat
		}
	}
	poison.LatenciesUS[worst] = 0.001
	if out, _ := store.Add(poison); out != feedback.OutcomeQuarantined {
		t.Fatalf("poisoned record outcome %s, want quarantined", out)
	}

	ctrl, err := New(o, Config{
		DriftWindows: 2,
		DriftPoll:    5 * time.Millisecond,
		MinRecords:   16,
		Sweep:        testSweep(),
		Trainer:      train.Config{Trees: 8, MaxDepth: 8},
		Seed:         7,
	}, Deps{Store: store, Registry: reg, Shadow: shadow, Health: health})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	// Live traffic from the shifted region: keeps the drift sketches
	// filling (Window=32 → ALERT within a few hundred selects).
	var stopTraffic atomic.Bool
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		ctx := context.Background()
		for i := 0; !stopTraffic.Load(); i++ {
			n := nodes[i%len(nodes)]
			p := ppns[(i/len(nodes))%len(ppns)]
			lm := lms[(i/(len(nodes)*len(ppns)))%len(lms)]
			f := perfmodel.DefaultSystems[0].Features(n, p, lm)
			if _, err := sel.Select(ctx, "broadcast", f); err != nil {
				t.Errorf("select: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer func() {
		stopTraffic.Store(true)
		<-trafficDone
	}()

	// Wait for the drift-triggered cycle to complete and promote.
	deadline := time.Now().Add(60 * time.Second)
	var rep Report
	for {
		rep = ctrl.Report()
		if rep.Cycles > 0 && rep.State == StateIdle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retrain cycle completed; report %+v, drift %+v", rep, health.DriftReport())
		}
		time.Sleep(20 * time.Millisecond)
	}
	v := rep.Verdicts[0]
	if v.Trigger != "drift" {
		t.Fatalf("cycle trigger = %q, want drift", v.Trigger)
	}
	if v.Outcome != OutcomePromoted {
		t.Fatalf("cycle outcome = %s detail %q, want promoted", v.Outcome, v.Detail)
	}
	_, activeGen := reg.Active()
	if activeGen == incGen || activeGen != v.CandidateGeneration {
		t.Fatalf("active generation %d (incumbent %d, candidate %d)", activeGen, incGen, v.CandidateGeneration)
	}

	// The promoted model's selections must track the oracle on the shifted
	// region the feedback taught it.
	stopTraffic.Store(true)
	<-trafficDone
	if acc := shiftedAccuracy(t, sel); acc < 0.7 {
		t.Fatalf("post-promotion oracle accuracy %.2f on the shifted grid, want >= 0.70", acc)
	}

	// Stale-candidate rollback: an operator can still retreat to the
	// previous generation after an automatic promotion.
	rb, err := reg.Rollback()
	if err != nil {
		t.Fatalf("rollback after auto-promote: %v", err)
	}
	if rb.ID() != incGen {
		t.Fatalf("rollback landed on generation %d, want incumbent %d", rb.ID(), incGen)
	}
	if _, gen := reg.Active(); gen != incGen {
		t.Fatalf("active generation %d after rollback, want %d", gen, incGen)
	}
	// And forward again to the retrained winner.
	if _, err := reg.Promote(v.CandidateGeneration); err != nil {
		t.Fatalf("re-promote candidate: %v", err)
	}
}

// s2out adapts store.Add's two-value return for inline assertions.
func s2out(out feedback.Outcome, err error) (feedback.Outcome, error) { return out, err }
