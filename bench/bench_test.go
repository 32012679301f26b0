package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
)

// The collectives each bundle serves, sorted as Bundle.CollectiveNames does.
var (
	sweepCollectives = perfmodel.CollectiveNames()
	paperCollectives = []string{"allgather", "alltoall"}
)

func collectivesOf(w workload) []string {
	if w.paper {
		return paperCollectives
	}
	return sweepCollectives
}

// hashedPoints is how much of each request pool the pinned hashes cover; a
// longer pool only appends to the stream.
const hashedPoints = 16384

// Seed-1 request streams: a change here changes what every committed result
// was measured on.
var pinnedStreams = map[string]string{
	"hot_singles":   "0170859a124a81ab215dada819feb4ca77c6674e83006b1fba7681198a0af04b",
	"cold_batch":    "6a0b2b21d75722b188618330cfb8c994489c7873edac23225ac5d21de87d2b49",
	"gateway_mixed": "0170859a124a81ab215dada819feb4ca77c6674e83006b1fba7681198a0af04b",
	"feedback_mix":  "971557c27246a3dbcc98e9a0d11ee26167329edf324672658eaa17265a64df4a",
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		got := streamHash(w, 1, collectivesOf(w), hashedPoints)
		if again := streamHash(w, 1, collectivesOf(w), hashedPoints); again != got {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if got != pinnedStreams[w.name] {
			t.Errorf("%s: seed-1 stream hash %s, pinned %s", w.name, got, pinnedStreams[w.name])
		}
		if other := streamHash(w, 2, collectivesOf(w), hashedPoints); other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
	long, short := points(1, 2*hashedPoints, sweepCollectives), points(1, hashedPoints, sweepCollectives)
	if string(long[hashedPoints-1].payload) != string(short[hashedPoints-1].payload) {
		t.Error("a longer pool is not an extension of a shorter one")
	}
}

func TestPayloadsDecodeToTheirFeatures(t *testing.T) {
	for _, p := range points(3, 64, sweepCollectives) {
		var req struct {
			Collective string             `json:"collective"`
			Features   map[string]float64 `json:"features"`
		}
		if err := json.Unmarshal(p.payload, &req); err != nil {
			t.Fatalf("%s: %v", p.payload, err)
		}
		want := p.features()
		if req.Collective != p.coll || len(req.Features) != len(want) {
			t.Fatalf("%s decodes to %+v", p.payload, req)
		}
		for k, v := range want {
			if req.Features[k] != v {
				t.Errorf("%s: feature %s = %v, want %v", p.payload, k, req.Features[k], v)
			}
		}
		if p.nodes*p.ppn < 2 || p.log2Msg < 2 || p.log2Msg > 22 {
			t.Errorf("point outside the sweep's hull: %+v", p)
		}
	}
}

// nameRe is the contract's shape for workload and metric names.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The program's metric tables and BENCHMARK.json must name the same things,
// inside the contract's limits.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !nameRe.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars) does not match %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, specs []metricSpec, decl []metric, max int, bounded bool) {
		if len(specs) < 1 || len(specs) > max || len(specs) != len(decl) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(specs), len(decl), max)
		}
		for i, s := range specs {
			if s.Name != decl[i].name || s.Unit != decl[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, s.Name, s.Unit, decl[i].name, decl[i].unit)
			}
			if !nameRe.MatchString(s.Name) || seen[s.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, s.Name)
			}
			seen[s.Name] = true
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better = %q", s.Name, s.Better)
			}
			if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s, lower], got %+v", s)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

func TestRegretArithmetic(t *testing.T) {
	// Oracle costs 2, 1, 4: class 1 is best, class 0 the library default.
	costs := []float64{2, 1, 4}
	var q quality
	q.add(costs, 1) // the best: regret 0, twice as fast as the default
	q.add(costs, 0) // the default: regret 2/1-1 = 1, no faster
	q.add(costs, 2) // the worst: regret 4/1-1 = 3, half as fast
	q.add(costs, 3) // a class the oracle does not price
	if got := q.agreement(); got != 0.25 {
		t.Errorf("agreement %v, want 1 of 4", got)
	}
	if got := q.regretMean(); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("regret mean %v, want (0+1+3)/3", got)
	}
	if got := q.regretP99(); got != 3 {
		t.Errorf("regret p99 %v, want 3", got)
	}
	// Geometric mean of 2, 1, 1/2 is 1.
	if got := q.speedup(); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed-up over default %v, want 1", got)
	}
}

func TestCheckDecisions(t *testing.T) {
	pool := []point{{coll: "allgather", want: 2}, {coll: "alltoall", want: 0}}
	served := []int16{-1, -1}
	indented := []byte("{\"results\": [\n {\"decision\": {\"algorithm\": \"ring\",\n  \"class\": 2}},\n {\"decision\": {\"algorithm\":\"linear\",\"class\":0}}]}")
	if wrong := checkDecisions(indented, pool, 0, 2, served); wrong != 0 || served[0] != 2 || served[1] != 0 {
		t.Errorf("good reply: %d wrong, served %v", wrong, served)
	}
	swapped := []byte(`[{"algorithm":"linear","class":0},{"algorithm":"ring","class":2}]`)
	if wrong := checkDecisions(swapped, pool, 0, 2, nil); wrong != 2 {
		t.Errorf("out-of-order reply: %d wrong, want 2", wrong)
	}
	short := []byte(`[{"algorithm":"ring","class":2},{"error":"boom"}]`)
	if wrong := checkDecisions(short, pool, 0, 2, nil); wrong != 2 {
		t.Errorf("short reply: %d wrong, want the whole call", wrong)
	}
	misnamed := []byte(`{"algorithm":"bruck","class":2}`)
	if wrong := checkDecisions(misnamed, pool, 0, 1, nil); wrong != 1 {
		t.Errorf("wrong algorithm name: %d wrong, want 1", wrong)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "call_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "decisions_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{105}, unchanged},
		{lower, []float64{100}, []float64{120}, regressed},
		{lower, []float64{100}, []float64{80}, improved},
		{higher, []float64{100}, []float64{80}, regressed},
		{higher, []float64{100}, []float64{120}, improved},
		{lower, []float64{100}, nil, unresolved},
		// Runs that disagree by more than the bound and overlap say nothing.
		{lower, []float64{80, 100, 120, 140}, []float64{90, 110, 130, 150}, unresolved},
		// Unless every run of one side beats every run of the other.
		{lower, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, improved},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A results file must survive the trip to disk and back into -compare.
func TestCompareFiles(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50 float64) string {
		res := results{Schema: 1, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			res.Workloads[w.name] = &workloadResult{e2eReport: e2eReport{
				Metrics: map[string]value{"call_p50_us": {Value: p50, Unit: "us"}}}}
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 100), write("same.json", 104), write("slower.json", 150)
	var out strings.Builder
	if err := compareFiles(&out, bf, a, same); err != nil {
		t.Errorf("a run 4 %% slower than its base was refused: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, bf, a, slower); err == nil || !strings.Contains(out.String(), regressed) {
		t.Errorf("a run 50 %% slower than its base passed:\n%s", out.String())
	}
}

// TestSmoke drives every workload through both passes in-process at toy
// scale, so the tier-1 tests prove the harness still compiles and runs
// against the layers' public API.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := run(options{seed: 1, outDir: t.TempDir(), smoke: true}); err != nil {
		t.Fatal(err)
	}
}
