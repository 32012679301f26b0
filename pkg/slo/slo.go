// Package slo tracks server-side service-level objectives for the selection
// path: a latency objective ("99% of selects complete within N") and an
// availability objective ("at least X of selects succeed"), both evaluated
// over rolling multi-window time rings (1m / 5m / 1h by default) in the
// standard SRE burn-rate formulation. A burn rate of 1.0 means the error
// budget is being consumed exactly as fast as the objective allows; >1 means
// the budget is burning down and the window will eventually violate; a
// multi-window alert (short AND long window both >1) separates real
// regressions from blips.
//
// The tracker is fed one Record per completed Select (success or failure)
// off the response path — one bucket search plus one striped-lock slot
// update, no allocation — and is read by /debug/slo and the pmlmpi_slo_*
// metrics.
package slo

import (
	"fmt"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// Objectives are the configured SLO targets.
type Objectives struct {
	// SelectP99 is the latency objective: 99% of selects must complete
	// within this duration. Zero disables latency burn tracking.
	SelectP99 time.Duration
	// Availability is the success-rate objective in (0,1), e.g. 0.999 for
	// "three nines" (an error budget of 0.1% of requests). Zero disables
	// availability burn tracking.
	Availability float64
}

// latencyBudget is the allowed slow fraction implied by a p99 objective.
const latencyBudget = 0.01

// DefaultWindows are the rolling evaluation windows, shortest first.
var DefaultWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// ringSlot is the time-slot width of the backing ring. 5s keeps the 1h
// window at 720 slots while giving the 1m window 12-slot resolution.
const ringSlot = 5 * time.Second

// Tracker evaluates the objectives over rolling windows.
type Tracker struct {
	obj     Objectives
	windows []time.Duration
	ring    *obs.WindowRing

	gLatencyBurn  *obs.Gauge
	gAvailBurn    *obs.Gauge
	gAvailability *obs.Gauge
	gSlowFraction *obs.Gauge
	cOK, cError   obs.BoundCounter
}

// New builds a tracker over DefaultWindows, registering its instruments
// (pmlmpi_slo_*) in reg. The objectives are exported as gauges so dashboards
// can plot measured values against targets without re-configuration.
func New(reg *obs.Registry, obj Objectives) *Tracker {
	maxWin := DefaultWindows[len(DefaultWindows)-1]
	t := &Tracker{
		obj:     obj,
		windows: DefaultWindows,
		ring:    obs.NewWindowRing(ringSlot, int(maxWin/ringSlot), obs.LatencyBuckets),
		gLatencyBurn: reg.Gauge("pmlmpi_slo_latency_burn_rate",
			"Latency error-budget burn rate per rolling window (1.0 = burning exactly at budget).", "window"),
		gAvailBurn: reg.Gauge("pmlmpi_slo_availability_burn_rate",
			"Availability error-budget burn rate per rolling window.", "window"),
		gAvailability: reg.Gauge("pmlmpi_slo_availability",
			"Measured success fraction per rolling window.", "window"),
		gSlowFraction: reg.Gauge("pmlmpi_slo_slow_fraction",
			"Fraction of selects slower than the latency objective, per rolling window.", "window"),
	}
	recorded := reg.Counter("pmlmpi_slo_observations_total",
		"Select outcomes fed into the SLO windows.", "outcome")
	t.cOK, t.cError = recorded.Bind("ok"), recorded.Bind("error")
	reg.Gauge("pmlmpi_slo_objective_select_p99_seconds",
		"Configured latency objective: 99% of selects must finish within this.").Set(obj.SelectP99.Seconds())
	reg.Gauge("pmlmpi_slo_objective_availability",
		"Configured availability objective (success fraction).").Set(obj.Availability)
	return t
}

// SetClock replaces the tracker's time source, for tests. Call before any
// Record traffic.
func (t *Tracker) SetClock(now func() time.Time) { t.ring.SetClock(now) }

// Record feeds one completed select (latency in seconds, success flag) into
// every window. Safe for concurrent use; intended to be called once per
// Select on the serving path.
func (t *Tracker) Record(seconds float64, ok bool) {
	t.ring.Record(seconds, ok)
	if ok {
		t.cOK.Inc()
	} else {
		t.cError.Inc()
	}
}

// Window is the evaluation of the objectives over one rolling window, as
// served on /debug/slo.
type Window struct {
	Window string `json:"window"`
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	// Availability is the measured success fraction (1 when idle — an empty
	// window has consumed no budget).
	Availability float64 `json:"availability"`
	// AvailabilityBurnRate is (error fraction) / (1 - objective).
	AvailabilityBurnRate float64 `json:"availability_burn_rate"`
	// SlowFraction is the share of selects slower than the latency objective.
	SlowFraction float64 `json:"slow_fraction"`
	// LatencyBurnRate is SlowFraction / 0.01 (the budget a p99 objective allows).
	LatencyBurnRate float64     `json:"latency_burn_rate"`
	Latency         obs.Summary `json:"latency"`
}

// Report is the full /debug/slo payload.
type Report struct {
	Objectives struct {
		SelectP99Seconds float64 `json:"select_p99_seconds"`
		Availability     float64 `json:"availability"`
	} `json:"objectives"`
	Windows []Window `json:"windows"`
}

// windowLabel renders a duration as a compact metric label ("1m", "5m", "1h").
func windowLabel(d time.Duration) string {
	switch {
	case d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return fmt.Sprintf("%ds", d/time.Second)
	}
}

// Report evaluates every window now.
func (t *Tracker) Report() Report {
	var r Report
	r.Objectives.SelectP99Seconds = t.obj.SelectP99.Seconds()
	r.Objectives.Availability = t.obj.Availability
	r.Windows = make([]Window, 0, len(t.windows))
	for _, d := range t.windows {
		r.Windows = append(r.Windows, t.evalWindow(d))
	}
	return r
}

func (t *Tracker) evalWindow(d time.Duration) Window {
	snap := t.ring.Snapshot(d)
	w := Window{
		Window:       windowLabel(d),
		Count:        snap.Count,
		Errors:       snap.Errors,
		Availability: 1,
		Latency:      snap.Summary(),
	}
	if snap.Count == 0 {
		return w
	}
	errFrac := float64(snap.Errors) / float64(snap.Count)
	w.Availability = 1 - errFrac
	if t.obj.Availability > 0 && t.obj.Availability < 1 {
		w.AvailabilityBurnRate = errFrac / (1 - t.obj.Availability)
	}
	if t.obj.SelectP99 > 0 {
		w.SlowFraction = snap.FractionAbove(t.obj.SelectP99.Seconds())
		w.LatencyBurnRate = w.SlowFraction / latencyBudget
	}
	return w
}

// Refresh re-evaluates every window and publishes the results to the
// pmlmpi_slo_* gauges. Called on each /metrics scrape so exported burn
// rates are current without a background goroutine.
func (t *Tracker) Refresh() {
	for _, w := range t.Report().Windows {
		t.gLatencyBurn.Set(w.LatencyBurnRate, w.Window)
		t.gAvailBurn.Set(w.AvailabilityBurnRate, w.Window)
		t.gAvailability.Set(w.Availability, w.Window)
		t.gSlowFraction.Set(w.SlowFraction, w.Window)
	}
}
