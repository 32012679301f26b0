package slo

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTracker(obj Objectives) (*Tracker, *fakeClock, *obs.Registry) {
	reg := obs.NewRegistry()
	t := New(reg, obj)
	clk := newFakeClock()
	t.SetClock(clk.now)
	return t, clk, reg
}

func window(t *testing.T, r Report, label string) Window {
	t.Helper()
	for _, w := range r.Windows {
		if w.Window == label {
			return w
		}
	}
	t.Fatalf("report has no %q window: %+v", label, r.Windows)
	return Window{}
}

// TestLatencyBurnRateOnSlowSelects is the acceptance-criteria test: inject
// deliberately slow selects and the burn rate must exceed 1; a normal
// microsecond-regime workload must burn ~0.
func TestLatencyBurnRateOnSlowSelects(t *testing.T) {
	tr, _, _ := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})

	// 90 fast selects, 10 pathological ones: slow fraction 0.1 against a
	// 1% budget → burn rate 10.
	for i := 0; i < 90; i++ {
		tr.Record(10e-6, true)
	}
	for i := 0; i < 10; i++ {
		tr.Record(50e-3, true)
	}
	w := window(t, tr.Report(), "1m")
	if w.Count != 100 {
		t.Fatalf("count = %d", w.Count)
	}
	if w.LatencyBurnRate <= 1 {
		t.Errorf("burn rate with 10%% slow selects = %v, want > 1", w.LatencyBurnRate)
	}
	if math.Abs(w.SlowFraction-0.1) > 0.02 {
		t.Errorf("slow fraction = %v, want ~0.1", w.SlowFraction)
	}
	if math.Abs(w.LatencyBurnRate-10) > 2 {
		t.Errorf("burn rate = %v, want ~10", w.LatencyBurnRate)
	}
}

func TestLatencyBurnRateNormalWorkloadIsNearZero(t *testing.T) {
	tr, _, _ := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})
	for i := 0; i < 1000; i++ {
		tr.Record(5e-6, true) // healthy µs-regime selects
	}
	w := window(t, tr.Report(), "1m")
	if w.LatencyBurnRate > 0.01 {
		t.Errorf("burn rate under normal workload = %v, want ~0", w.LatencyBurnRate)
	}
	if w.AvailabilityBurnRate != 0 {
		t.Errorf("availability burn with zero errors = %v", w.AvailabilityBurnRate)
	}
	if w.Availability != 1 {
		t.Errorf("availability = %v, want 1", w.Availability)
	}
}

func TestAvailabilityBurnRate(t *testing.T) {
	tr, _, _ := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})
	for i := 0; i < 995; i++ {
		tr.Record(5e-6, true)
	}
	for i := 0; i < 5; i++ {
		tr.Record(5e-6, false)
	}
	// 0.5% errors against a 0.1% budget → burn rate 5.
	w := window(t, tr.Report(), "1m")
	if math.Abs(w.AvailabilityBurnRate-5) > 0.1 {
		t.Errorf("availability burn = %v, want ~5", w.AvailabilityBurnRate)
	}
	if math.Abs(w.Availability-0.995) > 1e-9 {
		t.Errorf("availability = %v, want 0.995", w.Availability)
	}
}

// TestMultiWindowSeparation pins the point of multiple windows: after a
// burst of slow selects ages past the short window, the 1m burn recovers
// while the 1h window still remembers the incident.
func TestMultiWindowSeparation(t *testing.T) {
	tr, clk, _ := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})

	for i := 0; i < 100; i++ {
		tr.Record(50e-3, true) // incident: everything slow
	}
	clk.advance(10 * time.Minute)
	for i := 0; i < 100; i++ {
		tr.Record(5e-6, true) // recovered
	}

	r := tr.Report()
	if w := window(t, r, "1m"); w.LatencyBurnRate > 0.01 {
		t.Errorf("1m burn after recovery = %v, want ~0", w.LatencyBurnRate)
	}
	if w := window(t, r, "1h"); w.LatencyBurnRate <= 1 {
		t.Errorf("1h burn = %v, want > 1 (incident within the hour)", w.LatencyBurnRate)
	}
}

func TestIdleWindowsReportHealthy(t *testing.T) {
	tr, _, _ := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})
	for _, w := range tr.Report().Windows {
		if w.Count != 0 || w.Availability != 1 || w.LatencyBurnRate != 0 || w.AvailabilityBurnRate != 0 {
			t.Errorf("idle window %q = %+v, want healthy zero state", w.Window, w)
		}
	}
}

func TestRefreshPublishesGauges(t *testing.T) {
	tr, _, reg := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})
	for i := 0; i < 10; i++ {
		tr.Record(50e-3, true)
	}
	tr.Refresh()
	var b strings.Builder
	reg.WritePrometheus(&b)
	body := b.String()
	for _, want := range []string{
		`pmlmpi_slo_latency_burn_rate{window="1m"} 100`,
		`pmlmpi_slo_availability{window="1m"} 1`,
		`pmlmpi_slo_objective_select_p99_seconds 0.001`,
		`pmlmpi_slo_objective_availability 0.999`,
		`pmlmpi_slo_observations_total{outcome="ok"} 10`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestReportJSONShape pins the /debug/slo wire format.
func TestReportJSONShape(t *testing.T) {
	tr, _, _ := newTracker(Objectives{SelectP99: time.Millisecond, Availability: 0.999})
	tr.Record(5e-6, true)
	raw, err := json.Marshal(tr.Report())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"objectives"`, `"select_p99_seconds"`, `"availability"`,
		`"windows"`, `"window":"1m"`, `"window":"5m"`, `"window":"1h"`,
		`"latency_burn_rate"`, `"availability_burn_rate"`, `"slow_fraction"`,
		`"latency"`, `"p99_us"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report JSON missing %s: %s", key, raw)
		}
	}
}

// TestSlowFractionInterpolation: a latency objective that falls inside a
// bucket counts the bucket's mass as slow in proportion to how much of the
// bucket lies above it.
func TestSlowFractionInterpolation(t *testing.T) {
	slow := func(objective time.Duration, seconds float64, n int) float64 {
		tr, _, _ := newTracker(Objectives{SelectP99: objective, Availability: 0.999})
		for i := 0; i < n; i++ {
			tr.Record(seconds, true)
		}
		return window(t, tr.Report(), "1m").SlowFraction
	}
	// 10 selects in (10ms, 25ms]; an objective midway through the bucket
	// counts roughly half as slow.
	if got := slow(17500*time.Microsecond, 0.02, 10); math.Abs(got-0.5) > 0.01 {
		t.Errorf("straddled slow fraction = %v, want ~0.5", got)
	}
	if got := slow(50*time.Millisecond, 0.02, 10); got != 0 {
		t.Errorf("objective above all mass: slow = %v, want 0", got)
	}
	if got := slow(10*time.Millisecond, 0.02, 10); got != 1 {
		t.Errorf("objective below all mass: slow = %v, want 1", got)
	}
	// Mass past the last bucket bound is always slow.
	if got := slow(1500*time.Millisecond, 2, 5); got != 1 {
		t.Errorf("+Inf mass slow = %v, want 1", got)
	}
}
