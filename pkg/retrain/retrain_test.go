package retrain

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// testSweep is the small analytical base grid controllers blend under the
// feedback records in these tests: broadcast only, one system, 32 points.
func testSweep() perfmodel.SweepConfig {
	return perfmodel.SweepConfig{
		Collectives:  []string{"broadcast"},
		Nodes:        []float64{2, 4, 8, 16},
		PPN:          []float64{2, 8},
		Log2MsgSizes: []float64{4, 10, 16, 22},
		Systems:      perfmodel.DefaultSystems[:1],
	}
}

// trainIncumbent fits an incumbent on one sweep and returns its serialized
// bundle.
func trainIncumbent(t testing.TB, sweep perfmodel.SweepConfig, tc train.Config) []byte {
	t.Helper()
	ds, err := perfmodel.Sweep(sweep)
	if err != nil {
		t.Fatalf("incumbent sweep: %v", err)
	}
	b, _, err := train.TrainBundle(ds, train.BundleConfig{Config: tc, TrainedOn: []string{"incumbent"}})
	if err != nil {
		t.Fatalf("train incumbent: %v", err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatalf("encode incumbent: %v", err)
	}
	return data
}

// trainNarrowIncumbent fits a deliberately weak incumbent on a sliver of
// the feature space.
func trainNarrowIncumbent(t testing.TB) []byte {
	return trainIncumbent(t, perfmodel.SweepConfig{
		Collectives:  []string{"broadcast"},
		Nodes:        []float64{2},
		PPN:          []float64{2},
		Log2MsgSizes: []float64{4, 6},
		Systems:      perfmodel.DefaultSystems[:1],
	}, train.Config{Trees: 4, MaxDepth: 4, Seed: 3})
}

// feedbackGrid is the broadcast grid seedFeedback posts, none of whose
// points coincide with testSweep's.
func feedbackGrid() perfmodel.SweepConfig {
	return perfmodel.SweepConfig{
		Collectives:  []string{"broadcast"},
		Nodes:        []float64{3, 6, 12, 24, 48, 96},
		PPN:          []float64{4, 16},
		Log2MsgSizes: []float64{6, 12, 18, 24},
		Systems:      perfmodel.DefaultSystems[:1],
	}
}

// gridRecords is an oracle-labeled broadcast record at every point of the
// single-system grid g.
func gridRecords(t testing.TB, g perfmodel.SweepConfig) []*dataset.Record {
	t.Helper()
	var recs []*dataset.Record
	for _, nodes := range g.Nodes {
		for _, ppn := range g.PPN {
			for _, lm := range g.Log2MsgSizes {
				recs = append(recs, oracleRecord(t, "broadcast", nodes, ppn, lm))
			}
		}
	}
	return recs
}

// seedFeedback adds oracle-labeled records at every feedbackGrid point.
func seedFeedback(t testing.TB, s *feedback.Store) int {
	t.Helper()
	recs := gridRecords(t, feedbackGrid())
	for _, rec := range recs {
		if out, err := s.Add(rec); out != feedback.OutcomeAccepted {
			t.Fatalf("seed %v: outcome %s err %v", rec.Features, out, err)
		}
	}
	return len(recs)
}

// oracleRecord mirrors the feedback package's test helper: latencies are
// the analytical costs in microseconds, so the argmin matches the oracle.
func oracleRecord(t testing.TB, collective string, nodes, ppn, lm float64) *dataset.Record {
	t.Helper()
	f := perfmodel.DefaultSystems[0].Features(nodes, ppn, lm)
	costs, err := perfmodel.Costs(collective, f)
	if err != nil {
		t.Fatalf("oracle costs: %v", err)
	}
	algos := perfmodel.Table()[collective]
	lat := make(map[string]float64, len(algos))
	for i, name := range algos {
		lat[name] = costs[i] * 1e6
	}
	return &dataset.Record{Collective: collective, Features: f, LatenciesUS: lat}
}

// harness is the wired store + registry + incumbent every controller test
// starts from.
type harness struct {
	o      *obs.Obs
	store  *feedback.Store
	shadow *registry.Shadow
	reg    *registry.Registry
	incGen uint64
}

func newHarness(t testing.TB) *harness { return newHarnessOn(t, trainNarrowIncumbent(t)) }

// newHarnessOn serves the incumbent bundle data.
func newHarnessOn(t testing.TB, incumbent []byte) *harness {
	t.Helper()
	o := obs.NewForTest()
	store, err := feedback.NewStore(o.Registry, feedback.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("feedback store: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	shadow := registry.NewShadow(o, registry.ShadowConfig{Fraction: 1})
	reg := registry.New(o, registry.Config{Keep: 4, Shadow: shadow})
	g, err := reg.LoadData(incumbent, "incumbent")
	if err != nil {
		t.Fatalf("load incumbent: %v", err)
	}
	if _, err := reg.Promote(g.ID()); err != nil {
		t.Fatalf("promote incumbent: %v", err)
	}
	return &harness{o: o, store: store, shadow: shadow, reg: reg, incGen: g.ID()}
}

// candidateFiles lists the retrain-*.json files in the store directory.
func (h *harness) candidateFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(h.store.Dir(), "retrain-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func (h *harness) controller(t testing.TB, cfg Config) *Controller {
	t.Helper()
	if cfg.MinRecords == 0 {
		cfg.MinRecords = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Sweep.Collectives == nil {
		cfg.Sweep = testSweep()
	}
	if cfg.Trainer.Trees == 0 {
		cfg.Trainer = train.Config{Trees: 8, MaxDepth: 8}
	}
	c, err := New(h.o, cfg, Deps{Store: h.store, Registry: h.reg, Shadow: h.shadow})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRunCycleSkipsBelowMinRecords(t *testing.T) {
	h := newHarness(t)
	c := h.controller(t, Config{MinRecords: 16})
	v := c.RunCycle("manual")
	if v.Outcome != OutcomeSkippedRecords {
		t.Fatalf("outcome = %s, want %s (detail %q)", v.Outcome, OutcomeSkippedRecords, v.Detail)
	}
	if _, gen := h.reg.Active(); gen != h.incGen {
		t.Fatalf("skip cycle changed the active generation to %d", gen)
	}
	if c.State() != StateIdle {
		t.Fatalf("controller left in state %s", c.State())
	}
}

func TestRunCyclePromotesWinningCandidate(t *testing.T) {
	h := newHarness(t)
	n := seedFeedback(t, h.store)
	c := h.controller(t, Config{})

	v := c.RunCycle("manual")
	if v.Outcome != OutcomePromoted {
		t.Fatalf("outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomePromoted)
	}
	if v.FeedbackRecords != n {
		t.Fatalf("verdict counted %d feedback records, want %d", v.FeedbackRecords, n)
	}
	if v.SweepExamples == 0 || v.HoldoutExamples == 0 || v.TrainExamples != v.SweepExamples+n-v.HoldoutExamples {
		t.Fatalf("verdict dataset sizes = %+v", v)
	}
	if v.CandidateAccuracy <= v.IncumbentAccuracy {
		t.Fatalf("promoted with held-out accuracy %.4f against the incumbent's %.4f",
			v.CandidateAccuracy, v.IncumbentAccuracy)
	}
	_, gen := h.reg.Active()
	if gen != v.CandidateGeneration || gen == h.incGen {
		t.Fatalf("active generation %d, want promoted candidate %d", gen, v.CandidateGeneration)
	}
	// Promotion clears the shadow candidate via the registry.
	if h.shadow.Candidate() != nil {
		t.Fatal("shadow candidate still staged after promotion")
	}
	// The promoted bundle, and only it, is written to the store directory.
	want := filepath.Join(h.store.Dir(), "retrain-000001.json")
	if files := h.candidateFiles(t); len(files) != 1 || files[0] != want {
		t.Fatalf("candidate files %v, want [%s]", files, want)
	}
	if g, _ := h.reg.Generation(gen); g.Source() != want {
		t.Fatalf("promoted generation source %q, want %q", g.Source(), want)
	}

	rep := c.Report()
	if rep.Cycles != 1 || rep.Promoted != 1 || len(rep.Verdicts) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Verdicts[0].Cycle != v.Cycle {
		t.Fatalf("report verdict cycle %d, want %d", rep.Verdicts[0].Cycle, v.Cycle)
	}
	sum := c.Summarize()
	if sum.LastOutcome != OutcomePromoted || sum.Promoted != 1 || sum.State != StateIdle {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestRunCycleRetiresLosingCandidate(t *testing.T) {
	// The incumbent learnt the very points the feedback reports, so it
	// labels the held-out records right; a one-split candidate cannot beat
	// it.
	h := newHarnessOn(t, trainIncumbent(t, feedbackGrid(), train.Config{Trees: 8, MaxDepth: 8, Seed: 3}))
	seedFeedback(t, h.store)
	c := h.controller(t, Config{Trainer: train.Config{Trees: 1, MaxDepth: 1}})

	v := c.RunCycle("manual")
	if v.Outcome != OutcomeRetired {
		t.Fatalf("outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomeRetired)
	}
	if v.CandidateAccuracy > v.IncumbentAccuracy || !strings.Contains(v.Detail, "does not beat the incumbent") {
		t.Fatalf("retired with accuracy %.4f against %.4f, detail %q", v.CandidateAccuracy, v.IncumbentAccuracy, v.Detail)
	}
	if _, gen := h.reg.Active(); gen != h.incGen {
		t.Fatalf("losing candidate went active: generation %d", gen)
	}
	// The loser must stop receiving mirrored traffic and leaves no file.
	if h.shadow.Candidate() != nil {
		t.Fatal("shadow candidate still staged after retirement")
	}
	if files := h.candidateFiles(t); len(files) != 0 {
		t.Fatalf("retired candidate left files %v", files)
	}
	if rep := c.Report(); rep.Retired != 1 {
		t.Fatalf("report retired = %d, want 1", rep.Retired)
	}
}

// TestJudgeRetiresATie: promotion needs strictly higher held-out accuracy,
// so a candidate that only matches the incumbent loses.
func TestJudgeRetiresATie(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	c := h.controller(t, Config{})
	fb, err := h.store.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	_, holdout, err := c.blend(fb)
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if detail := c.judge(&v, h.reg.ActiveGeneration(), holdout); detail == "" || v.CandidateAccuracy != v.IncumbentAccuracy {
		t.Fatalf("incumbent judged against itself: detail %q, accuracy %.4f against %.4f",
			detail, v.CandidateAccuracy, v.IncumbentAccuracy)
	}
}

func TestRunCycleSkipsDuplicateCandidate(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	c1 := h.controller(t, Config{Seed: 11})
	if v := c1.RunCycle("manual"); v.Outcome != OutcomePromoted {
		t.Fatalf("first cycle outcome = %s detail %q", v.Outcome, v.Detail)
	}
	files := h.candidateFiles(t)
	// A fresh controller with the same seed trains a byte-identical bundle
	// on the unchanged data; staging it dedups onto the active generation.
	c2 := h.controller(t, Config{Seed: 11})
	c2.cycles.Store(1) // so a file of its own would not share c1's name
	if v := c2.RunCycle("manual"); v.Outcome != OutcomeSkippedDuplicate {
		t.Fatalf("second cycle outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomeSkippedDuplicate)
	}
	if got := h.candidateFiles(t); !reflect.DeepEqual(got, files) {
		t.Fatalf("candidate files %v after a duplicate, want %v", got, files)
	}
}

// dirState is every file in dir with its size and modification time.
func dirState(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d@%d", info.Size(), info.ModTime().UnixNano())
	}
	return out
}

// TestIdleCycleChangesNothing: with no feedback accepted since the last
// cycle that trained, a cycle trains nothing, keeps the active generation
// and writes no file; the next accepted record makes cycles train again.
func TestIdleCycleChangesNothing(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	c := h.controller(t, Config{})
	if v := c.RunCycle("manual"); v.Outcome != OutcomePromoted {
		t.Fatalf("first cycle outcome = %s detail %q", v.Outcome, v.Detail)
	}
	_, gen := h.reg.Active()
	before := dirState(t, h.store.Dir())

	trained := 0
	c.train = func(ds *dataset.Dataset, cfg train.BundleConfig) (*bundle.Bundle, []train.Report, error) {
		trained++
		return train.TrainBundle(ds, cfg)
	}

	for i := 0; i < 3; i++ {
		// A duplicate submission is not a newly accepted record.
		if out, _ := h.store.Add(oracleRecord(t, "broadcast", 3, 4, 6)); out != feedback.OutcomeDuplicate {
			t.Fatalf("resubmission outcome %s, want duplicate", out)
		}
		v := c.RunCycle("interval")
		if v.Outcome != OutcomeSkippedNoFeedback {
			t.Fatalf("idle cycle %d outcome = %s detail %q, want %s", i, v.Outcome, v.Detail, OutcomeSkippedNoFeedback)
		}
	}
	if trained != 0 {
		t.Fatalf("idle cycles trained %d candidates", trained)
	}
	if _, g := h.reg.Active(); g != gen {
		t.Fatalf("idle cycles moved the active generation %d -> %d", gen, g)
	}
	if after := dirState(t, h.store.Dir()); !reflect.DeepEqual(after, before) {
		t.Fatalf("idle cycles changed the store directory:\n before %v\n after  %v", before, after)
	}

	if out, err := h.store.Add(oracleRecord(t, "broadcast", 5, 4, 6)); out != feedback.OutcomeAccepted {
		t.Fatalf("fresh record outcome %s err %v", out, err)
	}
	if v := c.RunCycle("interval"); v.Outcome == OutcomeSkippedNoFeedback || trained != 1 {
		t.Fatalf("cycle after a new record = %s, trained %d, want one training", v.Outcome, trained)
	}
}

// TestHeldOutRecordsAreNeverTrainedOn: across cycles over a growing store,
// every held-out feedback record is judged on, with its own label, and is
// never in the training set, not even as the sweep's label for the same
// point.
func TestHeldOutRecordsAreNeverTrainedOn(t *testing.T) {
	h := newHarness(t)
	// Feedback on testSweep's own grid, so held-out points collide with
	// sweep points, plus the disjoint feedbackGrid. On the sweep grid the
	// runner-up is reported as the winner where it costs less than twice
	// the best: the guard accepts that, and the feedback label then differs
	// from the sweep's.
	onSweep := gridRecords(t, testSweep())
	for _, r := range onSweep {
		names := append([]string(nil), perfmodel.Table()[r.Collective]...)
		sort.Slice(names, func(i, j int) bool { return r.LatenciesUS[names[i]] < r.LatenciesUS[names[j]] })
		if first, second := names[0], names[1]; r.LatenciesUS[second] < 2*r.LatenciesUS[first] {
			r.LatenciesUS[first], r.LatenciesUS[second] = r.LatenciesUS[second], r.LatenciesUS[first]
		}
	}
	recs := append(onSweep, gridRecords(t, feedbackGrid())...)
	held := make(map[string]string) // key → the feedback's winning algorithm
	relabelled := 0
	for i, r := range recs {
		if !heldOut(r.Collective, r.Features) {
			continue
		}
		class, algorithm, err := dataset.ValidateRecord(perfmodel.Table(), r)
		if err != nil {
			t.Fatal(err)
		}
		held[dataset.Key(r.Collective, r.Features)] = algorithm
		if best, _ := perfmodel.Best(r.Collective, r.Features); i < len(onSweep) && class != best {
			relabelled++
		}
	}
	if relabelled == 0 || len(held) == len(recs) {
		t.Fatalf("%d of %d records held out, %d of them on the sweep grid with a label of their own; the test needs both kinds and a collision",
			len(held), len(recs), relabelled)
	}

	var sets []*dataset.Dataset
	c := h.controller(t, Config{})
	c.train = func(ds *dataset.Dataset, cfg train.BundleConfig) (*bundle.Bundle, []train.Report, error) {
		sets = append(sets, ds)
		return train.TrainBundle(ds, cfg)
	}
	for lo := 0; lo < len(recs); lo += 32 {
		for _, r := range recs[lo:min(lo+32, len(recs))] {
			if out, err := h.store.Add(r); out != feedback.OutcomeAccepted {
				t.Fatalf("add: outcome %s err %v", out, err)
			}
		}
		v := c.RunCycle("manual")
		if v.Outcome == OutcomeError {
			t.Fatalf("cycle %d: %s", v.Cycle, v.Detail)
		}
	}
	if len(sets) < 2 {
		t.Fatalf("%d cycles trained, want at least 2", len(sets))
	}
	for i, ds := range sets {
		for _, ex := range ds.Examples {
			if _, ok := held[dataset.Key(ex.Collective, ex.Features)]; ok {
				t.Fatalf("training set of cycle %d holds held-out point %v", i+1, ex.Features)
			}
		}
	}
	fb, err := h.store.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	_, holdout, err := c.blend(fb)
	if err != nil {
		t.Fatal(err)
	}
	if holdout.Len() != len(held) {
		t.Fatalf("holdout has %d records, want the %d held out", holdout.Len(), len(held))
	}
	for _, ex := range holdout.Examples {
		if want := held[dataset.Key(ex.Collective, ex.Features)]; ex.Algorithm != want {
			t.Fatalf("held-out point %v judged as %q, want the feedback's %q", ex.Features, ex.Algorithm, want)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	h := newHarness(t)
	if _, err := New(h.o, Config{}, Deps{Store: h.store}); err == nil {
		t.Fatal("New accepted nil Registry")
	}
	if _, err := New(h.o, Config{Trainer: train.Config{FeatureFrac: math.NaN()}}, Deps{Store: h.store, Registry: h.reg}); err == nil ||
		!strings.Contains(err.Error(), "FeatureFrac") {
		t.Fatalf("New with Trainer.FeatureFrac NaN = %v, want an error naming FeatureFrac", err)
	}
}
