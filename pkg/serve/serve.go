// Package serve builds the pmlmpi-server serving stack from one Config:
// model registry with shadow evaluation, decision cache, SLO tracker,
// model-health observatory, selector, optional bundle watcher, fleet
// replica agent, feedback store and retrain controller, Go runtime
// collector, and the admin HTTP surface. The binary and the in-process
// harnesses build through New, so what the tests exercise is what ships.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/admin"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/replica"
	"github.com/pml-mpi/pmlmpi/pkg/retrain"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// Fixed sizes that are not worth a flag. The decision-cache shards (16),
// shadow workers (2) and queue (256) and the trace capacity (256) are
// their packages' defaults.
const (
	decisionRing    = 256
	runtimeInterval = 10 * time.Second
)

// Config is the stack's configuration, one field per pmlmpi-server flag
// (Flags registers them, with their meaning). Start from Defaults: the
// zero value is not the binary's default, because 0 is a meaningful value
// for several fields (it disables the cache, shadow evaluation, SLO burn
// tracking and tracing).
type Config struct {
	Addr, Bundle, LogLevel string
	ShutdownTimeout        time.Duration

	CacheEntries int
	CacheTTL     time.Duration
	BatchWorkers int

	RegistryKeep   int
	BundleWatch    bool
	WatchInterval  time.Duration
	ShadowFraction float64

	SLOSelectP99    time.Duration
	SLOAvailability float64

	DriftWindow   int
	DriftAlertPSI float64
	MarginWarn    float64
	FlightRecSize int

	FeedbackDir         string
	RetrainInterval     time.Duration
	RetrainMinRecords   int
	RetrainDriftWindows int
	PromotePolicy       string

	ControlPlane, ReplicaID, Advertise string
	ManifestPoll, StageSoak            time.Duration
	MinAgreement                       float64
	MinShadowSamples                   uint64

	TraceSampleRate float64
	Pprof           bool
}

// Flags registers every Config field on fs as the pmlmpi-server flag of
// the same meaning, bound to c, and sets each field to its default.
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Bundle, "bundle", ".pmlbench/bundle_all_full.json", "path to the model bundle JSON")
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address for the HTTP surface")
	fs.StringVar(&c.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.DurationVar(&c.ShutdownTimeout, "shutdown-timeout", 10*time.Second, "deadline for draining in-flight requests on SIGINT/SIGTERM")

	fs.IntVar(&c.CacheEntries, "cache-entries", 65536, "decision-cache capacity in entries (0 disables the cache)")
	fs.DurationVar(&c.CacheTTL, "cache-ttl", 10*time.Minute, "decision-cache entry lifetime (0 = never expire)")
	fs.IntVar(&c.BatchWorkers, "batch-workers", 0, "worker-pool size for /v1/select/batch (0 = GOMAXPROCS)")

	fs.IntVar(&c.RegistryKeep, "registry-keep", 4, "model generations kept resident for promote/rollback")
	fs.BoolVar(&c.BundleWatch, "bundle-watch", false, "poll the bundle file and hot-swap changed content automatically")
	fs.DurationVar(&c.WatchInterval, "bundle-watch-interval", 5*time.Second, "bundle watcher poll interval")
	fs.Float64Var(&c.ShadowFraction, "shadow-fraction", 0.1, "fraction in [0,1] of live traffic mirrored to a staged candidate generation (0 disables shadow evaluation)")

	fs.DurationVar(&c.SLOSelectP99, "slo-select-p99", time.Millisecond, "latency SLO: 99% of selects must complete within this (0 disables latency burn tracking)")
	fs.Float64Var(&c.SLOAvailability, "slo-availability", 0.999, "availability SLO: required select success fraction in [0,1) (0 disables availability burn tracking)")

	fs.IntVar(&c.DriftWindow, "drift-window", modelhealth.DefaultWindow, "decisions per feature-drift PSI window")
	fs.Float64Var(&c.DriftAlertPSI, "drift-alert-psi", modelhealth.DefaultAlertPSI, "PSI at or above which a feature's drift status is ALERT (warn at 40% of this)")
	fs.Float64Var(&c.MarginWarn, "margin-warn", modelhealth.DefaultMarginWarn, "vote margin below which a decision counts as low-confidence")
	fs.IntVar(&c.FlightRecSize, "flightrec-size", modelhealth.DefaultFlightRecSize, "anomaly flight-recorder capacity in records")

	fs.StringVar(&c.FeedbackDir, "feedback-dir", "", "directory for the /v1/feedback JSONL store (empty disables the feedback and retraining surfaces)")
	fs.DurationVar(&c.RetrainInterval, "retrain-interval", 0, "period of timer-driven retrain cycles (0 disables the timer)")
	fs.IntVar(&c.RetrainMinRecords, "retrain-min-records", retrain.DefaultMinRecords, "fewest resident feedback records worth retraining on")
	fs.IntVar(&c.RetrainDriftWindows, "retrain-drift-windows", 0, "completed drift windows at ALERT that trigger a retrain cycle (0 disables the drift trigger)")
	fs.StringVar(&c.PromotePolicy, "promote-policy", retrain.PolicyAuto, "what happens to a winning candidate: auto (promote) or manual (stage only)")

	fs.StringVar(&c.ControlPlane, "controlplane", "", "control-plane base URL; set to run as a fleet replica that pulls bundles by manifest hash (empty = standalone server)")
	fs.StringVar(&c.ReplicaID, "replica-id", "", "unique replica id reported to the control plane (default: hostname)")
	fs.StringVar(&c.Advertise, "advertise", "", "this replica's own base URL, reported in heartbeats for discovery")
	fs.DurationVar(&c.ManifestPoll, "manifest-poll", 2*time.Second, "control-plane manifest poll (and heartbeat) interval")
	fs.DurationVar(&c.StageSoak, "stage-soak", 10*time.Second, "shadow-evaluation soak before a pulled candidate is promoted (negative = promote immediately)")
	fs.Float64Var(&c.MinAgreement, "min-agreement", 0.9, "shadow-agreement rate in (0,1] below which a soaking candidate is rejected")
	fs.Uint64Var(&c.MinShadowSamples, "min-shadow-samples", 20, "shadow samples required before the agreement gate judges a candidate")

	fs.Float64Var(&c.TraceSampleRate, "trace-sample-rate", 0.01, "head-based trace sampling fraction in [0,1] (0 disables tracing)")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
}

// Defaults returns the configuration pmlmpi-server runs with when no flag
// is set.
func Defaults() Config {
	var c Config
	c.Flags(flag.NewFlagSet("serve", flag.ContinueOnError))
	return c
}

// Validate reports every value the stack would otherwise silently ignore
// or rewrite, one joined error naming each bad field and its flag.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, field, name string, v any, want string) {
		if !ok {
			errs = append(errs, fmt.Errorf("%s (-%s) = %v: want %s", field, name, v, want))
		}
	}
	check(c.MinAgreement > 0 && c.MinAgreement <= 1, "MinAgreement", "min-agreement", c.MinAgreement, "a rate in (0,1]")
	check(c.SLOAvailability >= 0 && c.SLOAvailability < 1, "SLOAvailability", "slo-availability", c.SLOAvailability, "a fraction in [0,1)")
	check(c.ShadowFraction >= 0 && c.ShadowFraction <= 1, "ShadowFraction", "shadow-fraction", c.ShadowFraction, "a fraction in [0,1]")
	check(c.TraceSampleRate >= 0 && c.TraceSampleRate <= 1, "TraceSampleRate", "trace-sample-rate", c.TraceSampleRate, "a fraction in [0,1]")
	check(c.CacheEntries >= 0, "CacheEntries", "cache-entries", c.CacheEntries, "a count >= 0 (0 disables the cache)")
	check(retrain.ValidPolicy(c.PromotePolicy), "PromotePolicy", "promote-policy", fmt.Sprintf("%q", c.PromotePolicy),
		retrain.PolicyAuto+" or "+retrain.PolicyManual)
	return errors.Join(errs...)
}

// Stack is one built serving stack. Serve Handler, then call Close.
type Stack struct {
	Handler  http.Handler
	Selector *selector.Selector
	Registry *registry.Registry
	// Agent is the fleet replica agent; nil without Config.ControlPlane.
	Agent *replica.Agent
	// Role is "replica" with a control plane, else "server".
	Role string

	o      *obs.Obs
	shadow *registry.Shadow
	health *modelhealth.Observatory
	store  *feedback.Store
	ctrl   *retrain.Controller
	ctx    context.Context
	cancel context.CancelFunc
	loops  sync.WaitGroup
}

// New validates cfg and builds the stack on o, starting its background
// loops (shadow workers, bundle watcher, replica agent, retrain
// controller, runtime collector).
func New(cfg Config, o *obs.Obs) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o.Traces.SetSampleRate(cfg.TraceSampleRate)
	if cfg.TraceSampleRate > 0 {
		o.Logger.Info("trace sampling enabled",
			"rate", cfg.TraceSampleRate, "capacity", obs.DefaultTraceCapacity)
	}
	s := &Stack{Role: "server", o: o}

	// Registry + shadow evaluation. The shadow is built first (the registry
	// feeds it staged candidates); its algorithm namer is wired after the
	// selector exists.
	s.shadow = registry.NewShadow(o, registry.ShadowConfig{Fraction: cfg.ShadowFraction})
	s.Registry = registry.New(o, registry.Config{Keep: cfg.RegistryKeep, Shadow: s.shadow})
	gen, err := s.Registry.Load(cfg.Bundle)
	switch {
	case err == nil:
		if _, err := s.Registry.Promote(gen.ID()); err != nil {
			return nil, fmt.Errorf("promote initial bundle: %w", err)
		}
	case cfg.ControlPlane != "":
		// A fleet replica can boot without a local bundle: the agent pulls
		// the desired generation from the control plane and promotes it.
		o.Logger.Warn("no local bundle; waiting for the control plane",
			"path", cfg.Bundle, "error", err.Error())
	default:
		return nil, fmt.Errorf("load bundle: %w", err)
	}

	var decisionCache *cache.Cache
	if cfg.CacheEntries > 0 {
		decisionCache = cache.New(cache.Config{MaxEntries: cfg.CacheEntries, TTL: cfg.CacheTTL}, o.Registry)
		o.Logger.Info("decision cache enabled", "entries", cfg.CacheEntries, "ttl", cfg.CacheTTL.String())
	} else {
		o.Logger.Info("decision cache disabled")
	}

	// SLO tracking: every Select feeds rolling 1m/5m/1h windows; burn rates
	// surface on /debug/slo and pmlmpi_slo_*.
	tracker := slo.New(o.Registry, slo.Objectives{
		SelectP99:    cfg.SLOSelectP99,
		Availability: cfg.SLOAvailability,
	})

	// Model-health observatory: every Select feeds drift sketches, margin
	// telemetry, per-generation scorecards, and the anomaly flight
	// recorder; surfaces on /debug/{drift,scorecards,flightrecorder} and
	// pmlmpi_drift_* / pmlmpi_margin_* / pmlmpi_flightrec_*.
	s.health = modelhealth.New(o.Registry, modelhealth.Config{
		Window:        cfg.DriftWindow,
		AlertPSI:      cfg.DriftAlertPSI,
		MarginWarn:    cfg.MarginWarn,
		FlightRecSize: cfg.FlightRecSize,
	})

	s.Selector = selector.NewFromSource(s.Registry, o, selector.Config{
		RingSize:     decisionRing,
		Cache:        decisionCache,
		BatchWorkers: cfg.BatchWorkers,
		Shadow:       s.shadow,
		SLO:          tracker,
		Health:       s.health,
	})
	s.shadow.SetNamer(s.Selector.AlgorithmName)
	s.shadow.SetHealthSink(s.health.RecordShadow)
	s.shadow.Start()

	s.ctx, s.cancel = context.WithCancel(context.Background())
	if cfg.BundleWatch {
		s.loop(replica.NewFileWatcher(s.Registry, o, cfg.Bundle, cfg.WatchInterval).Run)
	}

	// Fleet membership: poll the control-plane manifest, pull-verify-stage
	// desired bundles, soak them against shadow evaluation, and heartbeat.
	if cfg.ControlPlane != "" {
		s.Role = "replica"
		id := cfg.ReplicaID
		if id == "" {
			if id, err = os.Hostname(); err != nil {
				id = fmt.Sprintf("replica-%d", os.Getpid())
			}
		}
		s.Agent, err = replica.NewAgent(o, replica.AgentConfig{
			ControlPlane:     cfg.ControlPlane,
			ReplicaID:        id,
			Advertise:        cfg.Advertise,
			Registry:         s.Registry,
			Shadow:           s.shadow,
			Health:           s.health,
			SLO:              tracker,
			PollInterval:     cfg.ManifestPoll,
			StageSoak:        cfg.StageSoak,
			MinAgreement:     cfg.MinAgreement,
			MinShadowSamples: cfg.MinShadowSamples,
		})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("replica agent: %w", err)
		}
		s.loop(s.Agent.Run)
	}

	// Self-tuning loop: the feedback store ingests /v1/feedback into an
	// append-only JSONL log behind the oracle plausibility guard, and the
	// retrain controller turns accumulated records into judged candidate
	// generations on interval ticks or sustained drift ALERT.
	if cfg.FeedbackDir != "" {
		if s.store, err = feedback.NewStore(o.Registry, feedback.Config{Dir: cfg.FeedbackDir}); err != nil {
			s.Close()
			return nil, fmt.Errorf("open feedback store: %w", err)
		}
		s.ctrl, err = retrain.New(o, retrain.Config{
			Interval:      cfg.RetrainInterval,
			MinRecords:    cfg.RetrainMinRecords,
			DriftWindows:  cfg.RetrainDriftWindows,
			PromotePolicy: cfg.PromotePolicy,
		}, retrain.Deps{Store: s.store, Registry: s.Registry, Shadow: s.shadow, Health: s.health})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("retrain controller: %w", err)
		}
		s.ctrl.Start()
		o.Logger.Info("feedback loop enabled",
			"dir", cfg.FeedbackDir,
			"resident", s.store.Resident(),
			"retrain_interval", cfg.RetrainInterval.String(),
			"min_records", cfg.RetrainMinRecords,
			"drift_windows", cfg.RetrainDriftWindows,
			"promote_policy", cfg.PromotePolicy)
	}

	rc := obs.NewRuntimeCollector(o.Registry)
	s.loop(func(ctx context.Context) { rc.Run(ctx, runtimeInterval) })

	var desired func() any
	if s.Agent != nil {
		desired = func() any { return s.Agent.Status() }
	}
	s.Handler = admin.New(s.Selector, o, admin.Config{
		Pprof:    cfg.Pprof,
		Registry: s.Registry,
		Shadow:   s.shadow,
		SLO:      tracker,
		Health:   s.health,
		Feedback: s.store,
		Retrain:  s.ctrl,
		Role:     s.Role,
		Desired:  desired,
	})
	return s, nil
}

// loop runs fn in a goroutine until Close cancels its context.
func (s *Stack) loop(fn func(context.Context)) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		fn(s.ctx)
	}()
}

// Close stops the stack once its HTTP surface has drained: the retrain
// controller first (a judging cycle may be waiting on the shadow), then the
// shadow workers (queued samples are evaluated first), then the watcher,
// agent and runtime loops, waiting for them to return. Last it dumps the
// anomaly flight recorder to the log — once the process exits the
// in-memory ring is gone — and closes the feedback store.
func (s *Stack) Close() error {
	if s.ctrl != nil {
		s.ctrl.Stop()
	}
	s.shadow.Stop()
	s.cancel()
	s.loops.Wait()
	if records := s.health.Flight().Dump(); len(records) > 0 {
		if buf, err := json.Marshal(records); err == nil {
			s.o.Logger.Info("flight recorder dump",
				"records", len(records), "capacity", s.health.Flight().Capacity(), "dump", string(buf))
		}
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}
