package serve

import (
	"flag"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// trainedFixture is the committed trained bundle with embedded
// feature_stats.
var trainedFixture = filepath.Join("..", "bundle", "testdata", "trained_small.json")

// TestConfigFieldsAreFlags: every Config field is exactly one flag of the
// binary, and the binary has 28 of them.
func TestConfigFieldsAreFlags(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Flags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if fields := reflect.TypeOf(c).NumField(); n != fields || n != 28 {
		t.Fatalf("%d flags for %d Config fields, want 28 of each", n, fields)
	}
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   []string // fields named by the error
	}{
		{"slo-availability as a percentage", func(c *Config) { c.SLOAvailability = 99.9 }, []string{"SLOAvailability"}},
		{"shadow-fraction negative", func(c *Config) { c.ShadowFraction = -0.1 }, []string{"ShadowFraction"}},
		{"trace-sample-rate NaN", func(c *Config) { c.TraceSampleRate = math.NaN() }, []string{"TraceSampleRate"}},
		{"cache-entries negative", func(c *Config) { c.CacheEntries = -1 }, []string{"CacheEntries"}},
		{"all bad", func(c *Config) {
			c.SLOAvailability, c.ShadowFraction = 1, 2
			c.TraceSampleRate, c.CacheEntries = 1.5, -5
		}, []string{"SLOAvailability", "ShadowFraction", "TraceSampleRate", "CacheEntries"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Defaults()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			if got := strings.Count(err.Error(), "\n") + 1; got != len(tc.want) {
				t.Errorf("error reports %d problems, want %d: %v", got, len(tc.want), err)
			}
			for _, field := range tc.want {
				if !strings.Contains(err.Error(), field+" (-") {
					t.Errorf("error does not name %s: %v", field, err)
				}
			}
			if _, newErr := New(cfg, obs.NewForTest()); newErr == nil || newErr.Error() != err.Error() {
				t.Errorf("New = %v, want the validation error", newErr)
			}
		})
	}
}

// newStack builds a stack on a fresh Obs that closes with the test.
func newStack(t *testing.T, cfg Config) *obs.Obs {
	t.Helper()
	o := obs.NewForTest()
	st, err := New(cfg, o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return o
}

// TestMetricsFamilyInventoryGolden pins the complete instrument inventory
// of the stack pmlmpi-server runs with -feedback-dir set. A new instrument
// must be added here deliberately; a vanished one is a regression.
func TestMetricsFamilyInventoryGolden(t *testing.T) {
	cfg := Defaults()
	cfg.Bundle, cfg.FeedbackDir = trainedFixture, t.TempDir()
	if got := newStack(t, cfg).Registry.FamilyNames(); !reflect.DeepEqual(got, inventoryGolden) {
		t.Fatalf("metric family inventory drifted:\n got %q\nwant %q", got, inventoryGolden)
	}
}

// TestReplicaMetricsFamilyInventoryGolden: a fleet replica watching its
// bundle file adds exactly the agent's and the watcher's families.
func TestReplicaMetricsFamilyInventoryGolden(t *testing.T) {
	cfg := Defaults()
	cfg.Bundle, cfg.FeedbackDir = trainedFixture, t.TempDir()
	cfg.ControlPlane, cfg.ReplicaID = "http://127.0.0.1:1", "r0"
	cfg.ManifestPoll = time.Hour // never polls the unreachable control plane
	cfg.BundleWatch = true
	want := append(append([]string(nil), inventoryGolden...), replicaFamilies...)
	sort.Strings(want)
	if got := newStack(t, cfg).Registry.FamilyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica metric family inventory drifted:\n got %q\nwant %q", got, want)
	}
}

var replicaFamilies = []string{
	"pmlmpi_replica_candidate_verdicts_total",
	"pmlmpi_replica_heartbeats_total",
	"pmlmpi_replica_polls_total",
	"pmlmpi_replica_pulls_total",
	"pmlmpi_watcher_polls_total",
	"pmlmpi_watcher_reloads_total",
}

var inventoryGolden = []string{
	"pmlmpi_batch_requests_total",
	"pmlmpi_batch_size_items",
	"pmlmpi_build_info",
	"pmlmpi_bundle_forest_trees",
	"pmlmpi_bundle_loaded",
	"pmlmpi_bundle_size_bytes",
	"pmlmpi_bundle_trained_systems",
	"pmlmpi_cache_entries",
	"pmlmpi_cache_evictions_total",
	"pmlmpi_cache_hits_total",
	"pmlmpi_cache_lookup_duration_seconds",
	"pmlmpi_cache_misses_total",
	"pmlmpi_drift_cumulative_psi",
	"pmlmpi_drift_observations_total",
	"pmlmpi_drift_psi",
	"pmlmpi_drift_reference_loaded",
	"pmlmpi_drift_status",
	"pmlmpi_drift_windows_completed",
	"pmlmpi_feedback_records_resident",
	"pmlmpi_feedback_records_total",
	"pmlmpi_feedback_segments",
	"pmlmpi_flightrec_capacity",
	"pmlmpi_flightrec_occupancy",
	"pmlmpi_flightrec_records_total",
	"pmlmpi_forest_predict_duration_seconds",
	"pmlmpi_go_gc_pause_last_seconds",
	"pmlmpi_go_gc_pause_total_seconds",
	"pmlmpi_go_gc_runs",
	"pmlmpi_go_goroutines",
	"pmlmpi_go_heap_alloc_bytes",
	"pmlmpi_go_heap_objects",
	"pmlmpi_go_heap_sys_bytes",
	"pmlmpi_go_next_gc_bytes",
	"pmlmpi_http_request_duration_seconds",
	"pmlmpi_http_requests_total",
	"pmlmpi_margin_low_rate",
	"pmlmpi_margin_low_total",
	"pmlmpi_margin_vote",
	"pmlmpi_margin_warn_threshold",
	"pmlmpi_registry_active_generation",
	"pmlmpi_registry_generations",
	"pmlmpi_registry_loads_total",
	"pmlmpi_registry_promotions_total",
	"pmlmpi_registry_rollbacks_total",
	"pmlmpi_retrain_candidate_generation",
	"pmlmpi_retrain_cycles_total",
	"pmlmpi_retrain_drift_alert_streak",
	"pmlmpi_retrain_state",
	"pmlmpi_select_duration_seconds",
	"pmlmpi_selection_errors_total",
	"pmlmpi_selections_total",
	"pmlmpi_selector_bundle_swaps_total",
	"pmlmpi_shadow_agreements_total",
	"pmlmpi_shadow_candidate_duration_seconds",
	"pmlmpi_shadow_dropped_total",
	"pmlmpi_shadow_errors_total",
	"pmlmpi_shadow_samples_total",
	"pmlmpi_slo_availability",
	"pmlmpi_slo_availability_burn_rate",
	"pmlmpi_slo_latency_burn_rate",
	"pmlmpi_slo_objective_availability",
	"pmlmpi_slo_objective_select_p99_seconds",
	"pmlmpi_slo_observations_total",
	"pmlmpi_slo_slow_fraction",
	"pmlmpi_span_duration_seconds",
	"pmlmpi_traces_sampled_total",
	"pmlmpi_traces_stored",
}
