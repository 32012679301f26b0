// Package retrain closes the serving loop: it watches the feedback store
// and the model-health observatory, and when enough evidence accumulates —
// a timer tick with fresh records, or a sustained drift ALERT — it trains a
// candidate bundle on a blend of operator feedback and the analytical
// sweep, stages it in the registry, and judges it offline against the
// incumbent on held-out feedback. One record in five is held out by its
// identity, so it is never trained on in any cycle; a candidate is promoted
// iff its accuracy on those records is strictly above the incumbent's, and
// retired otherwise without ever serving a request. Live shadow evidence is
// judged in one place, the fleet soak (controlplane.ShadowPolicy), not
// here. Every cycle leaves a verdict on /debug/retrain and in the
// pmlmpi_retrain_* metrics, so the self-tuning loop is as auditable as a
// human-driven promote.
package retrain

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// Cycle outcomes, as recorded in verdicts and the
// pmlmpi_retrain_cycles_total{outcome} counter.
const (
	OutcomePromoted          = "promoted"
	OutcomeRetired           = "retired"
	OutcomeSkippedRecords    = "skipped_min_records"
	OutcomeSkippedNoFeedback = "skipped_no_new_feedback"
	OutcomeSkippedNoHoldout  = "skipped_no_holdout"
	OutcomeSkippedDuplicate  = "skipped_duplicate"
	OutcomeError             = "error"
)

// Controller state machine values (pmlmpi_retrain_state gauge).
const (
	StateIdle     = "idle"
	StateTraining = "training"
	StateJudging  = "judging"
)

// Defaults for the zero Config.
const (
	DefaultMinRecords = 64
	DefaultDriftPoll  = 2 * time.Second
)

const (
	// history bounds the verdict ring served on /debug/retrain.
	history = 32
	// holdoutMod holds out the feedback records whose identity hashes to
	// 0 modulo it: one in five.
	holdoutMod = 5
)

// heldOut reports whether the feedback record at this feature point is
// held out for judging. It depends on the record's identity alone, so a
// held-out record is never trained on, in any cycle.
func heldOut(collective string, features map[string]float64) bool {
	h := fnv.New64a()
	h.Write([]byte(dataset.Key(collective, features)))
	return h.Sum64()%holdoutMod == 0
}

// Config tunes a Controller. The zero value disables both automatic
// triggers (no interval, no drift windows) but still supports manual
// RunCycle calls.
type Config struct {
	// Interval between timer-driven cycles. 0 disables the timer.
	Interval time.Duration
	// MinRecords is the fewest resident feedback records worth training
	// on; cycles below it are skipped (default 64).
	MinRecords int
	// DriftWindows triggers a cycle after this many completed drift
	// windows with the observatory in ALERT, consecutively. 0 disables
	// the drift trigger.
	DriftWindows int
	// DriftPoll is how often the drift state is sampled (default 2s).
	DriftPoll time.Duration
	// Sweep shapes the analytical base dataset blended under the
	// feedback; the zero value is the default full sweep.
	Sweep perfmodel.SweepConfig
	// Trainer tunes the candidate forest; zero value takes the train
	// package defaults. Its Seed is replaced by Seed.
	Trainer train.Config
	// Seed drives the trainer, keeping cycles deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MinRecords <= 0 {
		c.MinRecords = DefaultMinRecords
	}
	if c.DriftPoll <= 0 {
		c.DriftPoll = DefaultDriftPoll
	}
	return c
}

// Deps are the live subsystems the controller drives. Store and Registry
// are required; Shadow and Health are optional (without Health the drift
// trigger is inert; Shadow, when set, stops mirroring traffic to a retired
// candidate).
type Deps struct {
	Store    *feedback.Store
	Registry *registry.Registry
	Shadow   *registry.Shadow
	Health   *modelhealth.Observatory
}

// Verdict is the auditable record of one retrain cycle.
type Verdict struct {
	Cycle     uint64    `json:"cycle"`
	Trigger   string    `json:"trigger"` // interval | drift | manual
	StartedAt time.Time `json:"started_at"`
	EndedAt   time.Time `json:"ended_at"`
	Outcome   string    `json:"outcome"`
	// Detail explains retirements, skips, and errors.
	Detail string `json:"detail,omitempty"`

	// FeedbackRecords is the resident feedback; TrainExamples are the
	// training rows, SweepExamples of them from the analytical sweep and
	// the rest from feedback; HoldoutExamples are the held-out feedback
	// records the candidate is judged on.
	FeedbackRecords int `json:"feedback_records"`
	SweepExamples   int `json:"sweep_examples"`
	TrainExamples   int `json:"train_examples"`
	HoldoutExamples int `json:"holdout_examples"`

	CandidateGeneration uint64 `json:"candidate_generation,omitempty"`
	CandidateHash       string `json:"candidate_hash,omitempty"`

	// Accuracies on the held-out feedback.
	CandidateAccuracy float64 `json:"candidate_accuracy"`
	IncumbentAccuracy float64 `json:"incumbent_accuracy"`
}

// Report is the /debug/retrain payload.
type Report struct {
	State            string            `json:"state"`
	IntervalSeconds  float64           `json:"interval_seconds"`
	MinRecords       int               `json:"min_records"`
	DriftWindows     int               `json:"drift_windows"`
	DriftAlertStreak uint64            `json:"drift_alert_streak"`
	Cycles           uint64            `json:"cycles"`
	Promoted         uint64            `json:"promoted"`
	Retired          uint64            `json:"retired"`
	Feedback         feedback.Snapshot `json:"feedback"`
	// Verdicts are newest first.
	Verdicts []Verdict `json:"verdicts"`
}

// Summary is the retrain block embedded in /healthz.
type Summary struct {
	State            string     `json:"state"`
	Cycles           uint64     `json:"cycles"`
	Promoted         uint64     `json:"promoted"`
	DriftAlertStreak uint64     `json:"drift_alert_streak"`
	LastOutcome      string     `json:"last_outcome,omitempty"`
	LastCycleAt      *time.Time `json:"last_cycle_at,omitempty"`
	FeedbackResident int        `json:"feedback_resident"`
}

// Controller runs the retrain loop. Create with New, launch the triggers
// with Start, stop with Stop. RunCycle may also be called directly (the
// /debug and test path); cycles are serialized by an internal mutex.
type Controller struct {
	o    *obs.Obs
	cfg  Config
	deps Deps

	state atomic.Int32 // 0 idle, 1 training, 2 judging

	cycleMu sync.Mutex // serializes RunCycle
	cycles  atomic.Uint64
	// trainedAt is the store's accepted count when a cycle last trained,
	// plus one (0: no cycle has trained). Guarded by cycleMu.
	trainedAt uint64

	driftStreak  atomic.Uint64
	driftWindows uint64 // last observed completed-window count (run loop only)

	mu       sync.Mutex
	verdicts []Verdict // ring, oldest first
	promoted uint64
	retired  uint64

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// train is train.TrainBundle; tests swap it to see what each cycle
	// trains on.
	train func(*dataset.Dataset, train.BundleConfig) (*bundle.Bundle, []train.Report, error)

	cCycles *obs.Counter // {outcome}
	gState  *obs.Gauge
	gStreak *obs.Gauge
	gCand   *obs.Gauge
}

// New builds a Controller. Store and Registry must be non-nil.
func New(o *obs.Obs, cfg Config, deps Deps) (*Controller, error) {
	if deps.Store == nil || deps.Registry == nil {
		return nil, fmt.Errorf("retrain: Deps.Store and Deps.Registry are required")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Trainer.Validate(); err != nil {
		return nil, fmt.Errorf("retrain: Trainer: %w", err)
	}
	c := &Controller{
		o:     o,
		cfg:   cfg,
		deps:  deps,
		train: train.TrainBundle,
		done:  make(chan struct{}),
		cCycles: o.Registry.Counter("pmlmpi_retrain_cycles_total",
			"Retrain cycles by outcome.", "outcome"),
		gState: o.Registry.Gauge("pmlmpi_retrain_state",
			"Controller state: 0 idle, 1 training, 2 judging."),
		gStreak: o.Registry.Gauge("pmlmpi_retrain_drift_alert_streak",
			"Completed drift windows observed while the drift status held at ALERT."),
		gCand: o.Registry.Gauge("pmlmpi_retrain_candidate_generation",
			"Generation id of the most recent retrain candidate (0 before the first cycle)."),
	}
	c.gState.Set(0)
	return c, nil
}

// Start launches the trigger loop. Idempotent.
func (c *Controller) Start() {
	c.once.Do(func() {
		c.wg.Add(1)
		go c.run()
	})
}

// Stop halts the trigger loop and waits for any in-flight cycle started by
// it to finish.
func (c *Controller) Stop() {
	select {
	case <-c.done:
		return
	default:
	}
	c.Start() // ensure wg accounting exists even if Start was never called
	close(c.done)
	c.wg.Wait()
}

func (c *Controller) run() {
	defer c.wg.Done()

	var tickC <-chan time.Time
	if c.cfg.Interval > 0 {
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		tickC = t.C
	}
	var driftC <-chan time.Time
	if c.cfg.DriftWindows > 0 && c.deps.Health != nil {
		// Baseline the window counter so windows completed before the
		// controller existed never count toward the streak.
		_, c.driftWindows = c.deps.Health.DriftState()
		d := time.NewTicker(c.cfg.DriftPoll)
		defer d.Stop()
		driftC = d.C
	}
	for {
		select {
		case <-c.done:
			return
		case <-tickC:
			c.RunCycle("interval")
		case <-driftC:
			if c.pollDrift() {
				c.RunCycle("drift")
			}
		}
	}
}

// pollDrift folds one drift-state sample into the ALERT streak and reports
// whether the sustained-drift trigger fired. The streak counts completed
// windows observed while the status held at ALERT; any other status resets
// it.
func (c *Controller) pollDrift() bool {
	st, windows := c.deps.Health.DriftState()
	if st == modelhealth.DriftAlert {
		if windows > c.driftWindows {
			c.driftStreak.Add(windows - c.driftWindows)
		}
	} else {
		c.driftStreak.Store(0)
	}
	c.driftWindows = windows
	streak := c.driftStreak.Load()
	c.gStreak.Set(float64(streak))
	return streak >= uint64(c.cfg.DriftWindows)
}

func (c *Controller) setState(s int32) {
	c.state.Store(s)
	c.gState.Set(float64(s))
}

// State returns the controller's current state name.
func (c *Controller) State() string {
	switch c.state.Load() {
	case 1:
		return StateTraining
	case 2:
		return StateJudging
	default:
		return StateIdle
	}
}

// RunCycle executes one full retrain cycle synchronously and returns its
// verdict. trigger is recorded verbatim ("interval", "drift", "manual").
func (c *Controller) RunCycle(trigger string) Verdict {
	c.cycleMu.Lock()
	defer c.cycleMu.Unlock()

	v := Verdict{
		Cycle:     c.cycles.Add(1),
		Trigger:   trigger,
		StartedAt: time.Now(),
	}
	c.setState(1)
	c.runCycle(&v)
	c.setState(0)
	v.EndedAt = time.Now()

	// Any cycle — even a skip — consumes the drift evidence that fired it.
	c.driftStreak.Store(0)
	c.gStreak.Set(0)

	c.cCycles.Inc(v.Outcome)
	c.mu.Lock()
	c.verdicts = append(c.verdicts, v)
	if len(c.verdicts) > history {
		c.verdicts = c.verdicts[len(c.verdicts)-history:]
	}
	switch v.Outcome {
	case OutcomePromoted:
		c.promoted++
	case OutcomeRetired:
		c.retired++
	}
	c.mu.Unlock()
	c.o.Logger.Info("retrain cycle finished",
		"cycle", v.Cycle, "trigger", trigger, "outcome", v.Outcome, "detail", v.Detail)
	return v
}

func (c *Controller) runCycle(v *Verdict) {
	snap := c.deps.Store.Snapshot()
	v.FeedbackRecords = snap.Resident
	if snap.Resident < c.cfg.MinRecords {
		v.Outcome = OutcomeSkippedRecords
		v.Detail = fmt.Sprintf("%d resident feedback records, need %d", snap.Resident, c.cfg.MinRecords)
		return
	}
	if c.trainedAt == snap.Accepted+1 {
		v.Outcome = OutcomeSkippedNoFeedback
		v.Detail = "no feedback accepted since the last cycle that trained"
		return
	}

	fb, err := c.deps.Store.Dataset()
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("feedback dataset: %v", err)
		return
	}
	trainDS, holdout, err := c.blend(fb)
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = err.Error()
		return
	}
	// The store keeps one record per feature point, so every record not
	// held out is one training row.
	v.TrainExamples = trainDS.Len()
	v.SweepExamples = trainDS.Len() - (fb.Len() - holdout.Len())
	v.HoldoutExamples = holdout.Len()
	if holdout.Len() == 0 {
		v.Outcome = OutcomeSkippedNoHoldout
		v.Detail = fmt.Sprintf("none of %d feedback records is held out", fb.Len())
		return
	}
	c.trainedAt = snap.Accepted + 1

	tc := c.cfg.Trainer
	tc.Seed = c.cfg.Seed
	b, _, err := c.train(trainDS, train.BundleConfig{
		Config: tc,
		TrainedOn: []string{
			fmt.Sprintf("feedback:%d", fb.Len()-holdout.Len()),
			fmt.Sprintf("sweep:%d", v.SweepExamples),
		},
	})
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("train: %v", err)
		return
	}
	data, err := b.Encode()
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("encode bundle: %v", err)
		return
	}

	// The file is written only if the candidate is promoted.
	path := filepath.Join(c.deps.Store.Dir(), fmt.Sprintf("retrain-%06d.json", v.Cycle))
	_, activeGen := c.deps.Registry.Active()
	g, err := c.deps.Registry.LoadData(data, path)
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("stage: %v", err)
		return
	}
	v.CandidateGeneration = g.ID()
	v.CandidateHash = g.Hash()
	c.gCand.Set(float64(g.ID()))
	if g.ID() == activeGen {
		// LoadData returned an already-resident generation: the candidate
		// is byte-identical to the serving model, nothing to judge.
		v.Outcome = OutcomeSkippedDuplicate
		v.Detail = "candidate hash matches the active generation"
		return
	}

	c.setState(2)
	if detail := c.judge(v, g, holdout); detail != "" {
		if c.deps.Shadow != nil && c.deps.Shadow.Candidate() == g {
			c.deps.Shadow.ClearCandidate()
		}
		v.Outcome = OutcomeRetired
		v.Detail = detail
		return
	}
	if _, err := b.WriteFile(path); err != nil {
		v.Outcome = OutcomeError
		v.Detail = err.Error()
		return
	}
	if _, err := c.deps.Registry.Promote(g.ID()); err != nil {
		os.Remove(path) // the promote error is what the verdict reports
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("promote: %v", err)
		return
	}
	v.Outcome = OutcomePromoted
}

// blend splits the feedback into held-out records and training records,
// and lays the training records over the analytical sweep: a feedback
// record replaces the sweep's label on an identical feature point, and a
// held-out record removes it, so no held-out point is ever trained on.
func (c *Controller) blend(fb *dataset.Dataset) (trainDS, holdout *dataset.Dataset, err error) {
	sweep, err := perfmodel.Sweep(c.cfg.Sweep)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: %v", err)
	}
	all := dataset.New(sweep.Algorithms)
	if err := all.Merge(fb); err != nil {
		return nil, nil, fmt.Errorf("merge feedback: %v", err)
	}
	if err := all.Merge(sweep); err != nil {
		return nil, nil, fmt.Errorf("merge sweep: %v", err)
	}
	all.Dedup()
	// After Dedup the first occurrence of each point survives, and the
	// feedback came first: a point is held out iff its feedback record is.
	held := make(map[string]bool, fb.Len())
	for i := range fb.Examples {
		if ex := &fb.Examples[i]; heldOut(ex.Collective, ex.Features) {
			held[dataset.Key(ex.Collective, ex.Features)] = true
		}
	}
	trainDS, holdout = dataset.New(sweep.Algorithms), dataset.New(sweep.Algorithms)
	for _, ex := range all.Examples {
		if held[dataset.Key(ex.Collective, ex.Features)] {
			holdout.Examples = append(holdout.Examples, ex)
		} else {
			trainDS.Examples = append(trainDS.Examples, ex)
		}
	}
	return trainDS, holdout, nil
}

// judge scores the candidate and the incumbent on the held-out feedback.
// It returns "" if the candidate is strictly more accurate, else why not.
func (c *Controller) judge(v *Verdict, g *registry.Generation, holdout *dataset.Dataset) string {
	acc, err := accuracy(g.Bundle(), holdout)
	if err != nil {
		return fmt.Sprintf("candidate holdout scoring failed: %v", err)
	}
	v.CandidateAccuracy = acc
	if incumbent, _ := c.deps.Registry.Active(); incumbent != nil {
		// An incumbent that cannot score the holdout scores 0.
		v.IncumbentAccuracy, _ = accuracy(incumbent, holdout)
	}
	if v.CandidateAccuracy <= v.IncumbentAccuracy {
		return fmt.Sprintf("held-out feedback accuracy %.4f does not beat the incumbent's %.4f",
			v.CandidateAccuracy, v.IncumbentAccuracy)
	}
	return ""
}

// accuracy is the share of ds that b labels correctly; collectives the
// bundle cannot serve count as wrong.
func accuracy(b *bundle.Bundle, ds *dataset.Dataset) (float64, error) {
	var correct int
	var pred forest.Prediction
	for i := range ds.Examples {
		ex := &ds.Examples[i]
		coll, ok := b.Collective(ex.Collective)
		if !ok {
			continue
		}
		x, err := coll.Vector(ex.Features)
		if err != nil {
			return 0, fmt.Errorf("%s example %d: %w", ex.Collective, i, err)
		}
		cf := coll.Compiled()
		if cf == nil {
			return 0, fmt.Errorf("%s example %d: forest did not compile", ex.Collective, i)
		}
		if err := cf.PredictInto(x, &pred); err != nil {
			return 0, fmt.Errorf("%s example %d: %w", ex.Collective, i, err)
		}
		if pred.Class == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// Report builds the /debug/retrain payload.
func (c *Controller) Report() Report {
	c.mu.Lock()
	verdicts := make([]Verdict, len(c.verdicts))
	for i := range c.verdicts {
		verdicts[len(c.verdicts)-1-i] = c.verdicts[i]
	}
	promoted, retired := c.promoted, c.retired
	c.mu.Unlock()
	return Report{
		State:            c.State(),
		IntervalSeconds:  c.cfg.Interval.Seconds(),
		MinRecords:       c.cfg.MinRecords,
		DriftWindows:     c.cfg.DriftWindows,
		DriftAlertStreak: c.driftStreak.Load(),
		Cycles:           c.cycles.Load(),
		Promoted:         promoted,
		Retired:          retired,
		Feedback:         c.deps.Store.Snapshot(),
		Verdicts:         verdicts,
	}
}

// Summarize builds the /healthz retrain block.
func (c *Controller) Summarize() Summary {
	s := Summary{
		State:            c.State(),
		Cycles:           c.cycles.Load(),
		DriftAlertStreak: c.driftStreak.Load(),
		FeedbackResident: c.deps.Store.Resident(),
	}
	c.mu.Lock()
	s.Promoted = c.promoted
	if n := len(c.verdicts); n > 0 {
		last := c.verdicts[n-1]
		s.LastOutcome = last.Outcome
		at := last.EndedAt
		s.LastCycleAt = &at
	}
	c.mu.Unlock()
	return s
}
