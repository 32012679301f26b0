package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
)

// runOpts is one end-to-end run of one workload.
type runOpts struct {
	w       workload
	seed    int64
	seconds float64
	outDir  string
	sc      scale
	inproc  bool // serve from this process (the smoke pass) instead of subprocesses
}

// e2eReport is what one end-to-end run found.
type e2eReport struct {
	Metrics   map[string]value `json:"end_to_end"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	// Calls counts the timed calls behind call_* and aux_call_*.
	Calls    int `json:"calls"`
	AuxCalls int `json:"aux_calls"`
	// Segments holds the per-segment readings whose medians are reported.
	Segments map[string][]float64 `json:"segments"`
	// Observed is what was read from the tiers' own surfaces, from outside,
	// across the timed window; the regime guards judge these.
	Observed map[string]float64 `json:"observed"`
	FSType   string             `json:"fs_type,omitempty"`
}

// Call kinds.
const (
	kindSingle = iota
	kindBatch
	kindFeedback
)

// sample is one timed call.
type sample struct {
	end   time.Duration // since t0
	lat   time.Duration
	kind  uint8
	items int32 // decisions answered
}

// client is one closed-loop caller: it blocks on each reply before sending
// the next call, over one keep-alive connection, like an MPI runtime or a
// tuning-table builder would.
type client struct {
	id, of int
	w      workload
	pool   []point
	entry  string
	first  int // pool index the timed traffic starts from
	http   *http.Client

	req   []byte
	resp  bytes.Buffer
	calls int
	fb    *fbStream

	served []int16 // class served per pool point, -1 = not yet
	owner  []int8  // replica that answered each pool point (gateway only)

	samples           []sample
	attempted, failed int
	flips             int
}

func newClient(id, of int, o runOpts, pool []point, entry string) *client {
	c := &client{
		id: id, of: of, w: o.w, pool: pool, entry: entry,
		http:   &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		served: make([]int16, len(pool)),
		owner:  make([]int8, len(pool)),
	}
	for i := range c.served {
		c.served[i], c.owner[i] = -1, -1
	}
	if !o.w.hot {
		c.first = o.sc.qualityPoints(o.w)
	}
	if o.w.feedback {
		c.fb = newFBStream(o.seed, id)
	}
	return c
}

// post sends one call and reads the whole reply into c.resp. Only the round
// trip is timed: the body was assembled before, the reply is checked after.
func (c *client) post(path string, body []byte) (lat time.Duration, replica string, err error) {
	req, err := http.NewRequest(http.MethodPost, c.entry+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	c.resp.Reset()
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Since(start), "", err
	}
	_, err = c.resp.ReadFrom(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return lat, resp.Header.Get("X-Pmlmpi-Replica"), err
}

// selectCall asks for pool[first:first+n] (one /v1/select when n is 0) and
// checks every answer.
func (c *client) selectCall(first, n int) (time.Duration, int) {
	path, items := "/v1/select", 1
	if n == 0 {
		c.req = append(c.req[:0], c.pool[first%len(c.pool)].payload...)
	} else {
		path, items = "/v1/select/batch", n
		c.req = appendBatch(c.req[:0], c.pool, first, n)
	}
	lat, replica, err := c.post(path, c.req)
	c.attempted += items
	if err != nil {
		c.failed += items
		return lat, items
	}
	c.failed += checkDecisions(c.resp.Bytes(), c.pool, first, items, c.served)
	if c.w.gateway {
		if n == 0 {
			c.sawOwner(first, []byte(replica))
		} else {
			i := 0
			scanField(c.resp.Bytes(), "replica", func(raw []byte) {
				c.sawOwner(first+i, raw)
				i++
			})
		}
	}
	return lat, items
}

// sawOwner notes which replica answered a point; a point answered by two
// different replicas means the gateway's partitioning moved under load.
func (c *client) sawOwner(idx int, replica []byte) {
	if len(replica) == 0 {
		return
	}
	idx %= len(c.pool)
	id := int8(replica[len(replica)-1] - '0')
	if c.owner[idx] >= 0 && c.owner[idx] != id {
		c.flips++
	}
	c.owner[idx] = id
}

func (c *client) feedbackCall() time.Duration {
	op := c.fb.next()
	lat, _, err := c.post("/v1/feedback", op.payload)
	c.attempted++
	got, n := "", 0
	scanField(c.resp.Bytes(), "outcome", func(raw []byte) {
		got = string(raw)
		n++
	})
	if err != nil || n != 1 || got != op.want {
		c.failed++
	}
	return lat
}

// serveQuality sends this client's share of the quality points in batches.
func (c *client) serveQuality(points int) {
	for first := c.id * serveBatch; first < points; first += c.of * serveBatch {
		n := serveBatch
		if first+n > points {
			n = points - first
		}
		c.selectCall(first, n)
	}
}

// next issues this client's next call of the workload's mix.
func (c *client) next() sample {
	k := c.calls
	c.calls++
	switch {
	case c.w.batch > 0:
		lat, items := c.selectCall(c.first+(c.id+k*c.of)*c.w.batch, c.w.batch)
		return sample{lat: lat, kind: kindBatch, items: int32(items)}
	case c.w.gateway && k%5 == 4:
		lat, items := c.selectCall((c.id+k/5*c.of)*gatewayBatch, gatewayBatch)
		return sample{lat: lat, kind: kindBatch, items: int32(items)}
	case c.w.gateway:
		k -= k / 5
	case c.w.feedback && k%2 == 1:
		return sample{lat: c.feedbackCall(), kind: kindFeedback}
	case c.w.feedback:
		k /= 2
	}
	lat, items := c.selectCall(c.first+c.id+k*c.of, 0)
	return sample{lat: lat, kind: kindSingle, items: int32(items)}
}

// loop runs the mix until tEnd, keeping the calls that start and finish
// inside [t0, tEnd].
func (c *client) loop(t0, tEnd time.Time) {
	for {
		start := time.Now()
		if !start.Before(tEnd) {
			return
		}
		s := c.next()
		end := time.Now()
		if !start.Before(t0) && !end.After(tEnd) {
			s.end = end.Sub(t0)
			c.samples = append(c.samples, s)
		}
	}
}

// probe makes the first call of a freshly started fleet and decodes the
// reply in full, so a fleet counts as started only once it answers correctly.
func probe(entry string, p *point) error {
	resp, err := http.Post(entry+"/v1/select", "application/json", bytes.NewReader(p.payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var d struct {
		Algorithm string `json:"algorithm"`
		Class     *int   `json:"class"`
	}
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("first select: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || d.Class == nil || *d.Class != p.want || d.Algorithm != algorithmName(p.coll, p.want) {
		return fmt.Errorf("first select: HTTP %d, got %s, want class %d (%s)", resp.StatusCode, body, p.want, algorithmName(p.coll, p.want))
	}
	return nil
}

// snapshot is one outside reading of the fleet.
type snapshot struct {
	at           time.Time
	serverCPU    time.Duration
	selfCPU      time.Duration
	steal, total float64 // machine-wide CPU ticks
}

func takeSnapshot(f *fleet) (snapshot, error) {
	s := snapshot{at: time.Now()}
	s.steal, s.total = cpuSteal()
	var err error
	if s.selfCPU, err = procCPU([]int{os.Getpid()}); err != nil {
		return s, err
	}
	if pids := f.pids(); len(pids) > 0 {
		s.serverCPU, err = procCPU(pids)
	} else {
		// In-process tiers share this process; its CPU stands in for theirs.
		s.serverCPU = s.selfCPU
	}
	return s, err
}

// cacheFamilies are the replica counters the regime guards read.
var cacheFamilies = []string{"pmlmpi_cache_hits_total", "pmlmpi_cache_misses_total", "pmlmpi_cache_evictions_total"}

// observe scrapes every tier once: cache counters summed over replicas and,
// behind a gateway, its retry counter and per-replica request counts.
func observe(f *fleet) (counters, map[string]float64, error) {
	total := counters{}
	for _, t := range f.replicas() {
		c, err := scrape(t, cacheFamilies...)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range c {
			total[k] += v
		}
	}
	gw := f.gateway()
	if gw == nil {
		return total, nil, nil
	}
	c, err := scrape(gw, "pmlmpi_gw_retries_total")
	if err != nil {
		return nil, nil, err
	}
	total["pmlmpi_gw_retries_total"] = c["pmlmpi_gw_retries_total"]
	shares, err := replicaRequests(gw)
	return total, shares, err
}

// runE2E sets a workload's fleet up, drives it for o.seconds and reports the
// end-to-end metrics. It returns an error, and no numbers, if the run missed
// the regime the workload exists to measure.
func runE2E(o runOpts) (*e2eReport, error) {
	dir := filepath.Join(o.outDir, "run-"+o.w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	binDir := filepath.Join(o.outDir, "bin")

	// Set-up, part one: the bundle. The sweep bundle is trained here, by the
	// real trainer; the paper bundle ships with the repository.
	var trainDurs, startDurs []float64
	bundlePath := paperBundlePath
	train := func() error { return nil }
	var data []byte
	var err error
	switch {
	case o.inproc:
		var d time.Duration
		data, _, d, err = trainSweep(true)
		trainDurs = append(trainDurs, d.Seconds())
	case !o.w.paper:
		bundlePath = filepath.Join(dir, "sweep.json")
		train = func() error {
			start := time.Now()
			cmd := exec.Command(filepath.Join(binDir, "pmlmpi-train"), "-synthetic-sweep", "-seed", "1", "-quiet", "-out", bundlePath)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("pmlmpi-train: %w", err)
			}
			trainDurs = append(trainDurs, time.Since(start).Seconds())
			return nil
		}
		if err = train(); err == nil {
			data, err = os.ReadFile(bundlePath)
		}
	default:
		trainDurs = []float64{0}
		data, err = os.ReadFile(bundlePath)
	}
	if err != nil {
		return nil, err
	}
	ref, err := bundle.ParseAny(data)
	if err != nil {
		return nil, fmt.Errorf("reference parse of %s: %w", bundlePath, err)
	}

	// Part two: the inputs. The answer key is the bench's own cost, not the
	// system's, and stays out of setup_s.
	start := time.Now()
	pool := points(o.seed, o.sc.poolSize(o.w), ref.CollectiveNames())
	inputsDur := time.Since(start)
	if err := fillWants(ref, pool); err != nil {
		return nil, err
	}

	// Part three: cold starts, spawn to first correct answer. Three come
	// before the timed window, and the last fleet started is the one measured;
	// the other two, and a second training, come after it, half a minute
	// later, so that one spell of bad weather on the host cannot hold all of
	// them up: setup_s takes the quickest of each.
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	coldStart := func() error {
		if f != nil {
			f.stop()
			f = nil
		}
		start := time.Now()
		var err error
		if o.inproc {
			f, err = startInprocFleet(o.w, ref, dir, o.sc.cacheEntries)
		} else {
			f, err = startFleet(o.w, binDir, dir, bundlePath)
		}
		if err == nil {
			err = probe(f.entry, &pool[0])
		}
		startDurs = append(startDurs, time.Since(start).Seconds())
		return err
	}
	startsBefore, startsAfter := coldStartsBefore, coldStarts-coldStartsBefore
	if o.inproc {
		startsBefore, startsAfter = 1, 0
	}
	for i := 0; i < startsBefore; i++ {
		if err := coldStart(); err != nil {
			return nil, err
		}
	}

	// Serve the quality points, then run the mix through warm-up and the
	// timed window.
	n := runtime.GOMAXPROCS(0)
	if n > 2 {
		n = 2
	}
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = newClient(i, n, o, pool, f.entry)
	}
	qp := o.sc.qualityPoints(o.w)
	each(clients, func(c *client) { c.serveQuality(qp) })

	segLen := time.Duration(o.seconds / segments * float64(time.Second))
	t0 := time.Now().Add(time.Duration(o.sc.warmup * float64(time.Second)))
	tEnd := t0.Add(segments * segLen)
	done := make(chan struct{})
	go func() {
		each(clients, func(c *client) { c.loop(t0, tEnd) })
		close(done)
	}()
	// Read the fleet from outside at every segment boundary, and its own
	// counters at both ends of the window.
	snaps := make([]snapshot, 0, segments+1)
	var before, after counters
	var sharesBefore, sharesAfter map[string]float64
	var obsErr error
	for i := 0; i <= segments; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * segLen)))
		s, err := takeSnapshot(f)
		if err == nil && i == 0 {
			before, sharesBefore, err = observe(f)
		}
		if err == nil && i == segments {
			after, sharesAfter, err = observe(f)
		}
		if err != nil && obsErr == nil {
			obsErr = err
		}
		snaps = append(snaps, s)
	}
	<-done
	if obsErr != nil {
		return nil, fmt.Errorf("reading the fleet from outside: %w", obsErr)
	}
	pids := f.pids()
	if len(pids) == 0 {
		pids = []int{os.Getpid()}
	}
	rss, err := procPeakRSS(pids)
	if err != nil {
		return nil, err
	}
	for i := 0; i < startsAfter; i++ {
		if err := coldStart(); err != nil {
			return nil, err
		}
	}
	f.stop()
	f = nil
	if err := train(); err != nil {
		return nil, err
	}

	rep := &e2eReport{Segments: map[string][]float64{}, Observed: map[string]float64{}}
	if o.w.feedback {
		rep.FSType = fsType(dir)
	}
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", sorted(trainDurs)[0]+inputsDur.Seconds()+sorted(startDurs)[0])
	ms.set("peak_rss_mib", rss)

	// Merge the clients.
	served := clients[0].served
	owner := clients[0].owner
	// Latencies by segment, and all of them: the judged medians are read per
	// segment, the observed tails over the whole window.
	primary, aux := make([][]float64, segments+1), make([][]float64, segments+1)
	decisions := make([]float64, segments)
	flips := 0
	for ci, c := range clients {
		rep.Attempted += c.attempted
		rep.Failed += c.failed
		flips += c.flips
		for _, s := range c.samples {
			seg := int(s.end / segLen)
			if seg >= segments {
				seg = segments - 1
			}
			decisions[seg] += float64(s.items)
			us := float64(s.lat.Nanoseconds()) / 1e3
			into := primary
			if s.kind == kindFeedback || o.w.gateway && s.kind == kindBatch {
				into = aux
			}
			into[seg] = append(into[seg], us)
			into[segments] = append(into[segments], us)
		}
		if ci == 0 {
			continue
		}
		for i := range served {
			if c.served[i] >= 0 {
				served[i] = c.served[i]
			}
			if c.owner[i] >= 0 {
				if owner[i] >= 0 && owner[i] != c.owner[i] {
					flips++
				}
				owner[i] = c.owner[i]
			}
		}
	}
	if len(aux[segments]) == 0 {
		aux = primary // one call kind: the auxiliary kind is the primary one
	}
	rep.Calls, rep.AuxCalls = len(primary[segments]), len(aux[segments])

	// Every timing metric is read per segment, and the mean of the best
	// tenth of the segments is reported. A busy neighbour on the host
	// slows the segments it overlaps to half speed, in spells of seconds that
	// can fill most of a window, and never speeds one up: the best segments
	// are what the fleet does on a quiet machine, as long as a second or so
	// of the window was quiet. What that leaves out (neighbours, but also
	// anything of the fleet's own that recurs less often than every segment)
	// is in the whole-window means, observed.
	for i := 0; i < segments; i++ {
		if decisions[i] == 0 {
			continue
		}
		secs := snaps[i+1].at.Sub(snaps[i].at).Seconds()
		rep.Segments["decisions_per_s"] = append(rep.Segments["decisions_per_s"], decisions[i]/secs)
		cpu := snaps[i+1].serverCPU - snaps[i].serverCPU
		rep.Segments["cpu_ms_per_kdecision"] = append(rep.Segments["cpu_ms_per_kdecision"],
			float64(cpu.Milliseconds())/(decisions[i]/1000))
	}
	for name, lats := range map[string][][]float64{"call_p50_us": primary, "aux_call_p50_us": aux} {
		for _, seg := range lats[:segments] {
			if len(seg) > 0 {
				rep.Segments[name] = append(rep.Segments[name], percentile(sorted(seg), 0.5))
			}
		}
	}
	ms.set("decisions_per_s", best(rep.Segments["decisions_per_s"], true))
	for _, name := range []string{"cpu_ms_per_kdecision", "call_p50_us", "aux_call_p50_us"} {
		ms.set(name, best(rep.Segments[name], false))
	}
	total := 0.0
	for _, d := range decisions {
		total += d
	}
	rep.Observed["decisions_per_s_mean"] = total / snaps[segments].at.Sub(snaps[0].at).Seconds()
	rep.Observed["cpu_ms_per_kdecision_mean"] = float64((snaps[segments].serverCPU - snaps[0].serverCPU).Milliseconds()) / (total / 1000)
	// The tails could not hold a bound across runs of the same code on a
	// shared host (p95's spread reached 29 % of its median, p99's 37 %), so
	// they are observed over the whole window, not judged.
	for name, lats := range map[string][]float64{"call": sorted(primary[segments]), "aux_call": sorted(aux[segments])} {
		rep.Observed[name+"_p95_us"] = percentile(lats, 0.95)
		rep.Observed[name+"_p99_us"] = percentile(lats, 0.99)
	}

	q, unserved := scoreQuality(pool, served, qp)
	ms.set("oracle_agreement", q.agreement())
	ms.set("regret_mean", q.regretMean())
	ms.set("regret_p99", q.regretP99())
	ms.set("speedup_vs_default", q.speedup())
	rep.Metrics = ms.vals

	// What the tiers said about the window, and whether it was the regime
	// this workload is for.
	hits := after["pmlmpi_cache_hits_total"] - before["pmlmpi_cache_hits_total"]
	misses := after["pmlmpi_cache_misses_total"] - before["pmlmpi_cache_misses_total"]
	hitRatio := hits / (hits + misses)
	rep.Observed["cache_hit_ratio"] = hitRatio
	rep.Observed["cache_evictions"] = after["pmlmpi_cache_evictions_total"] - before["pmlmpi_cache_evictions_total"]
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if o.w.hot && !(hitRatio >= 0.99) {
		fail("cache hit ratio %.4f, want >= 0.99", hitRatio)
	}
	if !o.w.hot && !(hitRatio <= 0.01) {
		fail("cache hit ratio %.4f, want <= 0.01", hitRatio)
	}
	if o.w.gateway {
		total, max := 0.0, 0.0
		for id, a := range sharesAfter {
			d := a - sharesBefore[id]
			total += d
			if d > max {
				max = d
			}
			if d == 0 {
				fail("replica %s got no requests", id)
			}
		}
		rep.Observed["gateway_replica_share_max"] = max / total
		rep.Observed["gateway_retries"] = after["pmlmpi_gw_retries_total"] - before["pmlmpi_gw_retries_total"]
		rep.Observed["gateway_owner_flips"] = float64(flips)
		if flips > 0 {
			fail("%d points were answered by more than one replica", flips)
		}
	}
	// Stolen CPU is the sandbox's weather, not the fleet's doing: it explains
	// a slow run, it does not fail one.
	if dt := snaps[segments].total - snaps[0].total; dt > 0 {
		rep.Observed["machine_cpu_steal_share"] = (snaps[segments].steal - snaps[0].steal) / dt
	}
	if cpu, err := strconv.Atoi(os.Getenv(pinnedEnv)); err == nil {
		rep.Observed["pinned_cpu"] = float64(cpu)
	}
	self := snaps[segments].selfCPU - snaps[0].selfCPU
	srv := snaps[segments].serverCPU - snaps[0].serverCPU
	if !o.inproc {
		share := self.Seconds() / (self + srv).Seconds()
		rep.Observed["client_cpu_share"] = share
		if share > 0.6 {
			fail("the load generator used %.0f%% of all CPU: it, not the fleet, is being measured", 100*share)
		}
	}
	if unserved > 0 {
		fail("%d of the %d quality points were never answered correctly", unserved, qp)
	}
	if rep.Calls < o.sc.minCalls || rep.AuxCalls < o.sc.minCalls {
		fail("%d timed calls and %d auxiliary calls, want >= %d each for the segments to hold a few", rep.Calls, rep.AuxCalls, o.sc.minCalls)
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("%s missed its regime: %v (tier logs in %s)", o.w.name, problems, dir)
	}
	if rep.Failed == 0 && !o.inproc {
		// The tier logs of a clean run are only bulk (one line per cold
		// decision); a failed run keeps them for the post-mortem.
		os.RemoveAll(dir)
	}
	return rep, nil
}

// each runs fn on every client at once and waits.
func each(clients []*client, fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
