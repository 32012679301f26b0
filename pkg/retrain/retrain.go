// Package retrain closes the serving loop: it watches the feedback store
// and the model-health observatory, and when enough evidence accumulates —
// a timer tick with fresh records, or a sustained drift ALERT — it trains a
// candidate bundle on a blend of operator feedback and the analytical
// sweep, stages it in the registry, and judges it offline against the
// incumbent on a shared held-out split and on margin quality. Only a
// candidate that wins both clauses is promoted; a loser is retired without
// ever serving a request. Live shadow evidence is judged in one place, the
// fleet soak (controlplane.ShadowPolicy), not here. Every cycle
// leaves a verdict on /debug/retrain and in the pmlmpi_retrain_* metrics,
// so the self-tuning loop is as auditable as a human-driven promote.
package retrain

import (
	"fmt"
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
	OutcomePromoted         = "promoted"
	OutcomeRetired          = "retired"
	OutcomeStaged           = "staged" // won, but policy is manual
	OutcomeSkippedRecords   = "skipped_min_records"
	OutcomeSkippedDuplicate = "skipped_duplicate"
	OutcomeError            = "error"
)

// Promote policies.
const (
	PolicyAuto   = "auto"   // winning candidates are promoted immediately
	PolicyManual = "manual" // winning candidates stay staged for an operator
)

// Controller state machine values (pmlmpi_retrain_state gauge).
const (
	StateIdle     = "idle"
	StateTraining = "training"
	StateJudging  = "judging"
)

// Defaults for the zero Config.
const (
	DefaultMinRecords   = 64
	DefaultDriftPoll    = 2 * time.Second
	DefaultSweepFrac    = 1.0
	DefaultHoldoutFrac  = 0.2
	DefaultHoldoutFloor = 0.75
	DefaultHoldoutSlack = 0.02
	DefaultMarginSlack  = 0.05
	DefaultHistory      = 32
)

// Config tunes a Controller. The zero value disables both automatic
// triggers (no interval, no drift windows) but still supports manual
// RunCycle calls with the documented judging defaults.
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
	// PromotePolicy is PolicyAuto (default) or PolicyManual.
	PromotePolicy string
	// SweepFrac is the fraction of the analytical sweep blended under
	// the feedback records, in [0,1] (default 1: the full sweep). The
	// sweep anchors regions feedback has not covered; feedback wins on
	// identical feature points.
	SweepFrac float64
	// Sweep shapes the analytical base dataset; the zero value is the
	// default full grid.
	Sweep perfmodel.SweepConfig
	// Trainer tunes the candidate forest; zero value takes the train
	// package defaults.
	Trainer train.Config
	// Seed drives the holdout split, sweep subsampling, and (combined
	// with the cycle number) the trainer, keeping cycles deterministic.
	Seed int64
	// HoldoutFrac is the held-back fraction of the blended dataset used
	// for judging (default 0.2).
	HoldoutFrac float64
	// HoldoutFloor is the minimum holdout accuracy a candidate must
	// reach regardless of the incumbent (default 0.75).
	HoldoutFloor float64
	// HoldoutSlack is how far below the incumbent's holdout accuracy a
	// candidate may fall and still pass (default 0.02).
	HoldoutSlack float64
	// MarginSlack is how much higher than the incumbent's low-margin
	// rate the candidate's may be and still pass (default 0.05).
	MarginSlack float64
	// MarginWarn is the low-margin threshold for offline margin scoring;
	// 0 takes the observatory's threshold, or 0.15 without one.
	MarginWarn float64
	// OutDir receives candidate bundle files (default the feedback
	// store's directory).
	OutDir string
	// History bounds the verdict ring served on /debug/retrain
	// (default 32).
	History int
}

func (c Config) withDefaults(store *feedback.Store) Config {
	if c.MinRecords <= 0 {
		c.MinRecords = DefaultMinRecords
	}
	if c.DriftPoll <= 0 {
		c.DriftPoll = DefaultDriftPoll
	}
	if c.PromotePolicy == "" {
		c.PromotePolicy = PolicyAuto
	}
	if c.SweepFrac <= 0 {
		c.SweepFrac = DefaultSweepFrac
	}
	if c.HoldoutFrac <= 0 {
		c.HoldoutFrac = DefaultHoldoutFrac
	}
	if c.HoldoutFloor <= 0 {
		c.HoldoutFloor = DefaultHoldoutFloor
	}
	if c.HoldoutSlack <= 0 {
		c.HoldoutSlack = DefaultHoldoutSlack
	}
	if c.MarginSlack <= 0 {
		c.MarginSlack = DefaultMarginSlack
	}
	if c.OutDir == "" && store != nil {
		c.OutDir = store.Dir()
	}
	if c.History <= 0 {
		c.History = DefaultHistory
	}
	return c
}

// ValidPolicy reports whether p is a recognized promote policy.
func ValidPolicy(p string) bool { return p == PolicyAuto || p == PolicyManual }

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

	FeedbackRecords int `json:"feedback_records"`
	SweepExamples   int `json:"sweep_examples"`
	TrainExamples   int `json:"train_examples"`
	HoldoutExamples int `json:"holdout_examples"`

	CandidateGeneration uint64 `json:"candidate_generation,omitempty"`
	CandidateHash       string `json:"candidate_hash,omitempty"`

	CandidateAccuracy  float64 `json:"candidate_accuracy"`
	IncumbentAccuracy  float64 `json:"incumbent_accuracy"`
	CandidateLowMargin float64 `json:"candidate_low_margin_rate"`
	IncumbentLowMargin float64 `json:"incumbent_low_margin_rate"`
}

// Report is the /debug/retrain payload.
type Report struct {
	State            string            `json:"state"`
	Policy           string            `json:"policy"`
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
	Policy           string     `json:"policy"`
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

	driftStreak  atomic.Uint64
	driftWindows uint64 // last observed completed-window count (run loop only)

	mu       sync.Mutex
	verdicts []Verdict // ring, oldest first
	promoted uint64
	retired  uint64

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

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
	cfg = cfg.withDefaults(deps.Store)
	if !ValidPolicy(cfg.PromotePolicy) {
		return nil, fmt.Errorf("retrain: unknown promote policy %q (want %s or %s)",
			cfg.PromotePolicy, PolicyAuto, PolicyManual)
	}
	if err := cfg.Trainer.Validate(); err != nil {
		return nil, fmt.Errorf("retrain: Trainer: %w", err)
	}
	c := &Controller{
		o:    o,
		cfg:  cfg,
		deps: deps,
		done: make(chan struct{}),
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
	if len(c.verdicts) > c.cfg.History {
		c.verdicts = c.verdicts[len(c.verdicts)-c.cfg.History:]
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

	fb, err := c.deps.Store.Dataset()
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("feedback dataset: %v", err)
		return
	}

	blended, sweepN, err := c.blend(fb)
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = err.Error()
		return
	}
	v.SweepExamples = sweepN

	trainDS, holdout := blended.Split(c.cfg.HoldoutFrac, c.cfg.Seed)
	v.TrainExamples = trainDS.Len()
	v.HoldoutExamples = holdout.Len()
	if trainDS.Len() == 0 || holdout.Len() == 0 {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("degenerate split: %d train / %d holdout", trainDS.Len(), holdout.Len())
		return
	}

	tc := c.cfg.Trainer
	// Vary the trainer seed per cycle so retraining on the same data after
	// a retirement can still explore a different ensemble.
	tc.Seed = c.cfg.Seed + int64(v.Cycle)
	b, _, err := train.TrainBundle(trainDS, train.BundleConfig{
		Config: tc,
		TrainedOn: []string{
			fmt.Sprintf("feedback:%d", fb.Len()),
			fmt.Sprintf("sweep:%d", sweepN),
		},
	})
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("train: %v", err)
		return
	}

	path := filepath.Join(c.cfg.OutDir, fmt.Sprintf("retrain-%06d.json", v.Cycle))
	data, err := b.WriteFile(path)
	if err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("write bundle: %v", err)
		return
	}
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
	win, detail := c.judge(v, g, holdout)
	if !win {
		if c.deps.Shadow != nil && c.deps.Shadow.Candidate() == g {
			c.deps.Shadow.ClearCandidate()
		}
		v.Outcome = OutcomeRetired
		v.Detail = detail
		return
	}
	if c.cfg.PromotePolicy == PolicyManual {
		v.Outcome = OutcomeStaged
		v.Detail = "candidate won judging; promote policy is manual"
		return
	}
	if _, err := c.deps.Registry.Promote(g.ID()); err != nil {
		v.Outcome = OutcomeError
		v.Detail = fmt.Sprintf("promote: %v", err)
		return
	}
	v.Outcome = OutcomePromoted
}

// blend builds the training pool: feedback first, then a (possibly
// subsampled) analytical sweep, deduped so feedback wins identical points.
func (c *Controller) blend(fb *dataset.Dataset) (*dataset.Dataset, int, error) {
	sweep, err := perfmodel.Sweep(c.cfg.Sweep)
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: %v", err)
	}
	if c.cfg.SweepFrac < 1 {
		sweep, _ = sweep.Split(1-c.cfg.SweepFrac, c.cfg.Seed)
	}
	blended := dataset.New(sweep.Algorithms)
	if err := blended.Merge(fb); err != nil {
		return nil, 0, fmt.Errorf("merge feedback: %v", err)
	}
	if err := blended.Merge(sweep); err != nil {
		return nil, 0, fmt.Errorf("merge sweep: %v", err)
	}
	blended.Dedup()
	return blended, sweep.Len(), nil
}

// judge runs the offline promotion clauses against the incumbent. It returns
// win=false with a human-readable reason on the first failing clause.
func (c *Controller) judge(v *Verdict, g *registry.Generation, holdout *dataset.Dataset) (bool, string) {
	marginWarn := c.cfg.MarginWarn
	if marginWarn <= 0 {
		marginWarn = modelhealth.DefaultMarginWarn
		if c.deps.Health != nil {
			marginWarn = c.deps.Health.MarginWarn()
		}
	}

	candAcc, candLow, err := scoreBundle(g.Bundle(), holdout, marginWarn)
	if err != nil {
		return false, fmt.Sprintf("candidate holdout scoring failed: %v", err)
	}
	v.CandidateAccuracy = candAcc
	v.CandidateLowMargin = candLow

	incumbent, _ := c.deps.Registry.Active()
	if incumbent != nil {
		incAcc, incLow, err := scoreBundle(incumbent, holdout, marginWarn)
		if err != nil {
			// An incumbent that cannot score the holdout (e.g. missing
			// collectives) concedes the comparative clauses.
			incAcc, incLow = 0, 1
		}
		v.IncumbentAccuracy = incAcc
		v.IncumbentLowMargin = incLow
	}

	// Clause 1: absolute and relative holdout accuracy.
	if candAcc < c.cfg.HoldoutFloor {
		return false, fmt.Sprintf("holdout accuracy %.4f below floor %.4f", candAcc, c.cfg.HoldoutFloor)
	}
	if incumbent != nil && candAcc < v.IncumbentAccuracy-c.cfg.HoldoutSlack {
		return false, fmt.Sprintf("holdout accuracy %.4f trails incumbent %.4f beyond slack %.4f",
			candAcc, v.IncumbentAccuracy, c.cfg.HoldoutSlack)
	}
	// Clause 2: offline decision confidence must not degrade. Only an
	// incumbent that itself clears the accuracy floor may veto here — a
	// confidently wrong model has a perfect margin profile and would
	// otherwise block every better-calibrated challenger.
	if incumbent != nil && v.IncumbentAccuracy >= c.cfg.HoldoutFloor &&
		candLow > v.IncumbentLowMargin+c.cfg.MarginSlack {
		return false, fmt.Sprintf("low-margin rate %.4f exceeds incumbent %.4f plus slack %.4f",
			candLow, v.IncumbentLowMargin, c.cfg.MarginSlack)
	}
	return true, ""
}

// scoreBundle evaluates b on ds in one pass: overall accuracy (collectives
// the bundle cannot serve count as wrong) and the fraction of decisions
// whose soft-vote margin falls below marginWarn (unservable examples count
// as zero-margin).
func scoreBundle(b *bundle.Bundle, ds *dataset.Dataset, marginWarn float64) (acc, lowMarginRate float64, err error) {
	if ds.Len() == 0 {
		return 0, 0, fmt.Errorf("empty holdout")
	}
	var correct, low int
	var pred forest.Prediction
	for i := range ds.Examples {
		ex := &ds.Examples[i]
		coll, ok := b.Collective(ex.Collective)
		if !ok {
			low++
			continue
		}
		x, err := coll.Vector(ex.Features)
		if err != nil {
			return 0, 0, fmt.Errorf("%s example %d: %w", ex.Collective, i, err)
		}
		cf := coll.Compiled()
		if cf == nil {
			return 0, 0, fmt.Errorf("%s example %d: forest did not compile", ex.Collective, i)
		}
		if err := cf.PredictInto(x, &pred); err != nil {
			return 0, 0, fmt.Errorf("%s example %d: %w", ex.Collective, i, err)
		}
		if pred.Class == ex.Label {
			correct++
		}
		if forest.Margin(pred.Probs) < marginWarn {
			low++
		}
	}
	n := float64(ds.Len())
	return float64(correct) / n, float64(low) / n, nil
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
		Policy:           c.cfg.PromotePolicy,
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
		Policy:           c.cfg.PromotePolicy,
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
