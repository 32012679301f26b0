package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// workload is one traffic mix. The four differ only in working-set size,
// call shape, tier topology and read/write mix; every point comes from the
// same generator (points.go).
type workload struct {
	name     string
	paper    bool // serve .pmlbench/bundle_all_full.json instead of the sweep bundle
	hot      bool // cycle a pool that fits the decision cache; else a pool twice its size
	batch    int  // items per primary call (0 = /v1/select singles)
	gateway  bool // pmlmpi-gateway + 2 replicas; every fifth call is a batch of gatewayBatch
	feedback bool // -feedback-dir; every select is followed by one /v1/feedback post
}

var workloads = []workload{
	{name: "hot_singles", hot: true},
	{name: "cold_batch", paper: true, batch: 256},
	{name: "gateway_mixed", hot: true, gateway: true},
	{name: "feedback_mix", feedback: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes a run. The hot pool fits the server's default 65 536-entry
// cache and is served once before timing, so every timed call is a hit; the
// cold pool is twice the cache, so a cyclic replay never hits and every put
// evicts. The hot pool is 16 384 points, not fewer, because the
// decision-quality metrics are means over served points and must hold still
// across seeds: at 1 024 points regret_mean moved by 23 % of its median from
// seed to seed, at 16 384 by 4 %.
type scale struct {
	hotPool, coldPool int
	// quality is how many leading pool points a hot workload serves before
	// timing and scores for decision quality. A cold workload serves and
	// scores four times as many: that fills the servers' caches, so the timed
	// window sees the steady state of a long-running server (every put
	// evicts, memory no longer grows with the work done), and it steadies the
	// paper bundle's noisier agreement with the synthetic oracle.
	quality      int
	cacheEntries int // in-process decision-cache bound; 0 = the server's default
	minCalls     int // fewest timed calls of a kind for every segment to hold a few
	warmup       float64
}

var fullScale = scale{hotPool: 16384, coldPool: 131072, quality: 16384, minCalls: 400, warmup: 1.5}

// smokeScale keeps every regime (hot pool inside the cache, cold pool twice
// it) at a size an in-process pass finishes in well under a second.
var smokeScale = scale{hotPool: 512, coldPool: 2048, quality: 512, cacheEntries: 1024, warmup: 0.05}

func (sc scale) poolSize(w workload) int {
	if w.hot {
		return sc.hotPool
	}
	return sc.coldPool
}

func (sc scale) qualityPoints(w workload) int {
	if w.hot {
		return sc.quality
	}
	return 4 * sc.quality
}

const (
	gatewayBatch     = 16  // items of gateway_mixed's batch calls
	serveBatch       = 256 // items per call while the quality points are served
	segments         = 40  // of the timed window: half a second each at run_seconds
	coldStarts       = 5   // per run: coldStartsBefore the timed window, the rest after it
	coldStartsBefore = 3
)

// metric is one reported number. Direction and bound live in BENCHMARK.json;
// the unit is repeated here because the program prints it.
type metric struct {
	name string
	unit string
}

// endToEnd is what a caller of the fleet sees. Every workload reports every
// metric; see README.md for what aux_call_* means on each workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"aux_call_p50_us", "us"},
	{"cpu_ms_per_kdecision", "ms"},
	{"peak_rss_mib", "MiB"},
	{"oracle_agreement", "ratio"},
	{"regret_mean", "ratio"},
	{"regret_p99", "ratio"},
	{"speedup_vs_default", "x"},
}

// perLayer is the traced pass: every rung of the ladder, each layer's self
// time, and the counts taken at the same boundaries.
var perLayer = []metric{
	{"loadgen.encode_ns", "ns"},
	{"loadgen.inputs_s", "s"},
	{"trace_overhead_share", "ratio"},
	{"ladder.closure_share", "ratio"},
	{"ladder.samples", "count"},

	{"admin.roundtrip_ns", "ns"},
	{"admin.roundtrip_p99_ns", "ns"},
	{"admin.handler_ns", "ns"},
	{"admin.handler_p99_ns", "ns"},
	{"admin.wire_self_ns", "ns"},
	{"admin.codec_self_ns", "ns"},
	{"admin.batch_roundtrip_ns_per_item", "ns"},
	{"admin.batch_handler_ns_per_item", "ns"},
	{"admin.feedback_handler_ns", "ns"},
	{"admin.response_bytes_per_decision", "bytes"},
	{"admin.alloc_bytes_per_select", "bytes"},

	{"selector.select_ns", "ns"},
	{"selector.select_p99_ns", "ns"},
	{"selector.self_ns", "ns"},
	{"selector.select_hit_ns", "ns"},
	{"selector.select_cold_ns", "ns"},
	{"selector.batch_ns_per_item", "ns"},
	{"selector.telemetry_overhead_ns", "ns"},
	{"selector.alloc_bytes_per_cold_select", "bytes"},
	{"selector.cache_hit_ratio", "ratio"},

	{"bundle.vector_ns", "ns"},
	{"cache.get_ns", "ns"},
	{"cache.get_hit_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.evictions", "count"},
	{"compiled.predict_ns", "ns"},
	{"compiled.predict_p99_ns", "ns"},
	{"compiled.predict_batch_ns_per_item", "ns"},

	{"bundle.parse_json_ms", "ms"},
	{"bundle.parse_pmlb_ms", "ms"},
	{"compiled.compile_ms", "ms"},
	{"bundle.cold_start_ms", "ms"},

	{"gateway.roundtrip_ns", "ns"},
	{"gateway.roundtrip_p99_ns", "ns"},
	{"gateway.handler_ns", "ns"},
	{"gateway.hop_self_ns", "ns"},
	{"gateway.owner_ns", "ns"},
	{"gateway.partition_key_ns", "ns"},
	{"gateway.batch16_call_us", "us"},
	{"gateway.split_ns_per_item", "ns"},
	{"gateway.replica_share_max", "ratio"},
	{"gateway.retries", "count"},
	{"gateway.owner_flips", "count"},

	{"feedback.add_accept_ns", "ns"},
	{"feedback.add_duplicate_ns", "ns"},
	{"feedback.add_quarantine_ns", "ns"},
	{"feedback.bytes_per_record", "bytes"},
	{"perfmodel.costs_ns", "ns"},

	{"train.sweep_ms", "ms"},
	{"train.bundle_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"registry.promote_us", "us"},
}

// benchmarkFile mirrors BENCHMARK.json, the contract the driver checks the
// program against and the source of -compare's directions and bounds.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// value is one measured number as it is printed and stored.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and refuses names the tables above do
// not declare, so the program and BENCHMARK.json cannot drift apart.
type metricSet struct {
	decl map[string]string
	vals map[string]value
}

func newMetricSet(decl []metric) *metricSet {
	ms := &metricSet{decl: make(map[string]string, len(decl)), vals: make(map[string]value, len(decl))}
	for _, m := range decl {
		ms.decl[m.name] = m.unit
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	unit, ok := ms.decl[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	ms.vals[name] = value{Value: v, Unit: unit}
}

// missing lists declared metrics that were never set.
func (ms *metricSet) missing() []string {
	var out []string
	for name := range ms.decl {
		if _, ok := ms.vals[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}
