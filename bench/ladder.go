package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// The traced pass measures the layers from outside. It replays a workload's
// inputs in-process down a ladder in which every rung is a separate timed
// call, on the same input, into a public function one layer further in:
//
//	loopback POST to an admin.Server        admin.roundtrip
//	  ServeHTTP into a recorder             admin.handler
//	    Selector.Select                     selector.select
//	      VectorInto / cache Get / PredictInto / cache Put
//
// with a gateway over two replicas on top. Each rung calls its own
// identically built stack, so the decision caches evolve alike and a rung is
// never warmed by the one above it. A layer's self time is its rung minus the
// rung below. Spans are kept in memory and written when the pass ends.

// Span names, in ladder order; a span's parent is the rung above it.
const (
	spEncode = iota
	spRoundtrip
	spHandler
	spSelect
	spVector
	spCacheGet
	spPredict
	spCachePut
	spGatewayRoundtrip
	spGatewayHandler
	spGatewayOwner
	spFeedbackHandler
	spFeedbackAdd
)

var spanNames = []string{
	"loadgen.encode", "admin.roundtrip", "admin.handler", "selector.select",
	"bundle.vector", "cache.get", "compiled.predict", "cache.put",
	"gateway.roundtrip", "gateway.handler", "gateway.owner",
	"admin.feedback_handler", "feedback.add",
}

var spanParents = []int{-1, -1, spRoundtrip, spHandler, spSelect, spSelect, spSelect, spSelect,
	-1, spGatewayRoundtrip, spGatewayHandler, -1, spFeedbackHandler}

type span struct {
	name       int
	req        int
	start, end time.Duration // since the pass began
}

// tracer records spans around calls into the layers. Switched off it still
// takes the same two clock readings, so the difference between on and off is
// the cost of recording alone.
type tracer struct {
	on    bool
	began time.Time
	spans []span
}

func (t *tracer) done(name, req int, start time.Time) time.Duration {
	end := time.Now()
	if t.on {
		t.spans = append(t.spans, span{name: name, req: req, start: start.Sub(t.began), end: end.Sub(t.began)})
	}
	return end.Sub(start)
}

func (t *tracer) write(path string, w workload, seed int64) error {
	b := make([]byte, 0, 64+40*len(t.spans))
	b = append(b, `{"workload":"`...)
	b = append(b, w.name...)
	b = append(b, `","seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"names":[`...)
	for i, n := range spanNames {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, n)
	}
	b = append(b, `],"parents":[`...)
	for i, p := range spanParents {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	b = append(b, `],"columns":["name","request","start_ns","end_ns"],"spans":[`...)
	for i, s := range t.spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(s.name), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.req), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.start.Nanoseconds(), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end.Nanoseconds(), 10)
		b = append(b, ']')
	}
	b = append(b, "]}\n"...)
	return os.WriteFile(path, b, 0o644)
}

// rungs is one input's trip down the ladder.
type rungs struct {
	hit      bool // answered from the decision cache
	recorded bool // spans were being recorded
	enc, rt, h, sel, bare,
	vec, get, pred, put, getHit time.Duration
	respBytes int
}

func (r *rungs) leaves() time.Duration { return r.vec + r.get + r.pred + r.put }

func (r *rungs) total() time.Duration { return r.enc + r.rt + r.h + r.sel + r.bare + r.leaves() }

// ladderReport is what one traced pass found.
type ladderReport struct {
	Metrics   map[string]value `json:"per_layer"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Spans     int              `json:"spans"`
	TraceFile string           `json:"trace_file"`
}

// ladder holds the stacks the rungs call and the inputs' cursor.
type ladder struct {
	o    runOpts
	b    *bundle.Bundle
	pool []point
	tr   tracer
	ms   *metricSet
	http *http.Client

	roundtrip *tier  // admin stack behind a loopback listener
	handler   *stack // admin stack called through ServeHTTP
	selector  *stack // its Selector called directly
	bare      *stack // the same without SLO and model-health telemetry
	leafCache *cache.Cache

	inputs            int // single inputs issued so far
	runs              int // batch inputs issued so far
	fresh             int // next never-used pool point (cold streams)
	freshEnd          int // where the running section's share of fresh points ends
	lastIdx           int
	attempted, failed int
}

// coldLadderCache bounds the decision caches of a cold workload's traced pass.
const coldLadderCache = 4096

// subset is how much of a hot pool the traced pass cycles (2 048 points at
// full scale): its first lap gives the cold samples, every later lap the hits.
func (l *ladder) subset() int { return len(l.pool) / 8 }

// nextInput picks the next pool point and says whether it should hit the
// cache. A hot workload cycles the subset; a cold one takes fresh points and
// repeats every eighth, so hit-path metrics have samples on every workload.
func (l *ladder) nextInput() (idx int, hit, ok bool) {
	i := l.inputs
	l.inputs++
	if l.o.w.hot {
		n := l.subset()
		return i % n, i >= n, true
	}
	if i%8 == 7 {
		return l.lastIdx, true, true
	}
	if l.fresh >= l.freshEnd {
		return 0, false, false
	}
	l.lastIdx = l.fresh
	l.fresh++
	return l.lastIdx, false, true
}

// nextRun picks n consecutive pool points for a batch call: the next stretch
// of the warmed subset on a hot workload, fresh points on a cold one.
func (l *ladder) nextRun(n int) (first int, ok bool) {
	if l.o.w.hot {
		first = l.runs * n % l.subset()
		l.runs++
		return first, true
	}
	if l.fresh+n > l.freshEnd {
		return 0, false
	}
	first = l.fresh
	l.fresh += n
	return first, true
}

// more says whether a section should take another input: until its time is
// up, but never fewer than min, so a slow machine (or the race detector)
// still leaves every metric with samples.
func more(req, min int, deadline time.Time) bool {
	return req < min || time.Now().Before(deadline)
}

func (l *ladder) check(ok bool) {
	l.attempted++
	if !ok {
		l.failed++
	}
}

func (l *ladder) checkBody(body []byte, first, n int) {
	l.attempted += n
	l.failed += checkDecisions(body, l.pool, first, n, nil)
}

func (l *ladder) post(url string, body []byte) ([]byte, http.Header, error) {
	resp, err := l.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return buf.Bytes(), resp.Header, nil
}

func recorded(path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
}

// leafKey builds a cache key of the shape the selector's own key has
// (generation, collective, NUL, one quantised word per feature); that
// function is unexported, and the leaf rung only needs a key of equal cost.
func leafKey(buf []byte, coll string, x []float64) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, coll...)
	buf = append(buf, 0)
	for _, v := range x {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(math.Round(v/cacheQuantum))))
	}
	return buf
}

// singles walks single selects down the ladder until the budget is spent.
func (l *ladder) singles(budget time.Duration, max int) ([]rungs, error) {
	ctx := context.Background()
	var out []rungs
	var enc, key []byte
	var xbuf [16]float64
	var pred forest.Prediction
	deadline := time.Now().Add(budget)
	for req := 0; req < max && more(req, 2*l.subset()+256, deadline); req++ {
		idx, hit, ok := l.nextInput()
		if !ok {
			break
		}
		// Recording alternates in blocks, so both halves see the same mix.
		l.tr.on = req/64%2 == 0
		p := &l.pool[idx]
		feats := p.features()
		r := rungs{hit: hit, recorded: l.tr.on}

		start := time.Now()
		enc = appendSelect(enc[:0], p)
		r.enc = l.tr.done(spEncode, req, start)

		start = time.Now()
		body, _, err := l.post(l.roundtrip.url+"/v1/select", enc)
		r.rt = l.tr.done(spRoundtrip, req, start)
		if err != nil {
			return nil, err
		}
		l.checkBody(body, idx, 1)
		r.respBytes = len(body)

		rec, hreq := recorded("/v1/select", enc)
		start = time.Now()
		l.handler.admin.ServeHTTP(rec, hreq)
		r.h = l.tr.done(spHandler, req, start)
		l.checkBody(rec.Body.Bytes(), idx, 1)

		start = time.Now()
		d, err := l.selector.sel.Select(ctx, p.coll, feats)
		r.sel = l.tr.done(spSelect, req, start)
		l.check(err == nil && d.Class == p.want && d.Cached == hit)

		start = time.Now()
		d, err = l.bare.sel.Select(ctx, p.coll, feats)
		r.bare = time.Since(start)
		l.check(err == nil && d.Class == p.want)

		c := l.b.Collectives[p.coll]
		x := xbuf[:len(c.FeatureNames)]
		start = time.Now()
		err = c.VectorInto(x, feats)
		r.vec = l.tr.done(spVector, req, start)
		l.check(err == nil)
		key = leafKey(key, p.coll, x)
		start = time.Now()
		v, found := l.leafCache.Get(string(key))
		r.get = l.tr.done(spCacheGet, req, start)
		r.getHit = r.get
		if found {
			l.check(hit && v.(int) == p.want)
		} else {
			start = time.Now()
			err = c.Compiled().PredictInto(x, &pred)
			r.pred = l.tr.done(spPredict, req, start)
			l.check(!hit && err == nil && pred.Class == p.want)
			start = time.Now()
			l.leafCache.Put(string(key), pred.Class)
			r.put = l.tr.done(spCachePut, req, start)
			start = time.Now()
			l.leafCache.Get(string(key))
			r.getHit = time.Since(start)
		}
		out = append(out, r)
	}
	l.tr.on = true
	return out, nil
}

// batchRungs is one batch call's trip down the ladder, per item.
type batchRungs struct{ rt, h, sel, pred, respBytes float64 }

// batches walks batch calls of n items down the ladder.
func (l *ladder) batches(budget time.Duration, n int) ([]batchRungs, error) {
	ctx := context.Background()
	var out []batchRungs
	var enc []byte
	preds := map[string][]forest.Prediction{}
	deadline := time.Now().Add(budget)
	for req := 0; more(req, 4, deadline); req++ {
		first, ok := l.nextRun(n)
		if !ok {
			break
		}
		enc = appendBatch(enc[:0], l.pool, first, n)
		var r batchRungs
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

		start := time.Now()
		body, _, err := l.post(l.roundtrip.url+"/v1/select/batch", enc)
		r.rt = per(l.tr.done(spRoundtrip, -1-req, start))
		if err != nil {
			return nil, err
		}
		l.checkBody(body, first, n)
		r.respBytes = float64(len(body)) / float64(n)

		rec, hreq := recorded("/v1/select/batch", enc)
		start = time.Now()
		l.handler.admin.ServeHTTP(rec, hreq)
		r.h = per(l.tr.done(spHandler, -1-req, start))
		l.checkBody(rec.Body.Bytes(), first, n)

		reqs := make([]selector.BatchRequest, n)
		byColl := map[string][][]float64{}
		for i := range reqs {
			p := &l.pool[(first+i)%len(l.pool)]
			reqs[i] = selector.BatchRequest{Collective: p.coll, Features: p.features()}
			x, err := l.b.Collectives[p.coll].Vector(reqs[i].Features)
			if err != nil {
				return nil, err
			}
			byColl[p.coll] = append(byColl[p.coll], x)
		}
		start = time.Now()
		results := l.selector.sel.SelectBatch(ctx, reqs)
		r.sel = per(l.tr.done(spSelect, -1-req, start))
		for i, res := range results {
			l.check(res.Err == nil && res.Decision.Class == l.pool[(first+i)%len(l.pool)].want)
		}

		var predDur time.Duration
		for coll, xs := range byColl {
			// Reused outputs keep their vote and probability slices, so the
			// batch evaluator is timed without the allocations a first call makes.
			if len(preds[coll]) < len(xs) {
				preds[coll] = make([]forest.Prediction, n)
			}
			preds := preds[coll][:len(xs)]
			start = time.Now()
			err := l.b.Collectives[coll].Compiled().PredictBatch(xs, preds)
			predDur += l.tr.done(spPredict, -1-req, start)
			l.check(err == nil)
		}
		r.pred = per(predDur)
		out = append(out, r)
	}
	return out, nil
}

// gatewayRungs is one input's trip through the gateway ladder.
type gatewayRungs struct {
	rt, h, owner, pkey, direct time.Duration
	batch, directBatch         time.Duration // every fifth input
}

// gatewayResult is the gateway section: its rungs and what the gateway
// itself counted.
type gatewayResult struct {
	rungs    []gatewayRungs
	replicas []gateway.ReplicaInfo
	retries  float64
	flips    int // points answered by two different replicas
}

// gatewayLadder walks inputs through a gateway over two replicas and, for
// the hop's self time, straight to the direct admin stack.
func (l *ladder) gatewayLadder(budget time.Duration, cfg stackConfig) (*gatewayResult, error) {
	gwRT, replicasRT, err := newGateway(l.b, cfg)
	if err != nil {
		return nil, err
	}
	gwH, replicasH, err := newGateway(l.b, cfg)
	if err != nil {
		return nil, err
	}
	res := &gatewayResult{}
	front := serve("gateway", false, gwRT, nil)
	defer func() {
		for _, t := range append(append(replicasRT, replicasH...), front) {
			t.close()
		}
	}()
	if l.o.w.hot {
		// Put the subset in the replicas' caches, as the workload does.
		for first := 0; first < l.subset(); first += serveBatch {
			enc := appendBatch(nil, l.pool, first, serveBatch)
			if _, _, err := l.post(front.url+"/v1/select/batch", enc); err != nil {
				return nil, err
			}
			rec, hreq := recorded("/v1/select/batch", enc)
			gwH.ServeHTTP(rec, hreq)
		}
	}
	owners := map[int]string{}
	var enc []byte
	deadline := time.Now().Add(budget)
	for req := 0; more(req, 20, deadline); req++ {
		idx, _, ok := l.nextInput()
		if !ok {
			break
		}
		p := &l.pool[idx]
		feats := p.features()
		enc = appendSelect(enc[:0], p)
		var r gatewayRungs

		start := time.Now()
		body, hdr, err := l.post(front.url+"/v1/select", enc)
		r.rt = l.tr.done(spGatewayRoundtrip, req, start)
		if err != nil {
			return nil, err
		}
		l.checkBody(body, idx, 1)
		id := hdr.Get("X-Pmlmpi-Replica")
		if prev, seen := owners[idx]; seen && prev != id {
			res.flips++
		}
		owners[idx] = id

		rec, hreq := recorded("/v1/select", enc)
		start = time.Now()
		gwH.ServeHTTP(rec, hreq)
		r.h = l.tr.done(spGatewayHandler, req, start)
		l.checkBody(rec.Body.Bytes(), idx, 1)

		start = time.Now()
		owner := gwRT.Owner(p.coll, feats)
		r.owner = l.tr.done(spGatewayOwner, req, start)
		l.check(owner == id)

		start = time.Now()
		selector.PartitionKey(p.coll, feats, 0)
		r.pkey = time.Since(start)

		start = time.Now()
		body, _, err = l.post(l.roundtrip.url+"/v1/select", enc)
		r.direct = l.tr.done(spRoundtrip, req, start)
		if err != nil {
			return nil, err
		}
		l.checkBody(body, idx, 1)

		if req%5 == 4 {
			first, ok := l.nextRun(gatewayBatch)
			if !ok {
				break
			}
			enc = appendBatch(enc[:0], l.pool, first, gatewayBatch)
			start = time.Now()
			body, _, err = l.post(front.url+"/v1/select/batch", enc)
			r.batch = l.tr.done(spGatewayRoundtrip, -1-req, start)
			if err != nil {
				return nil, err
			}
			l.checkBody(body, first, gatewayBatch)
			start = time.Now()
			body, _, err = l.post(l.roundtrip.url+"/v1/select/batch", enc)
			r.directBatch = l.tr.done(spRoundtrip, -1-req, start)
			if err != nil {
				return nil, err
			}
			l.checkBody(body, first, gatewayBatch)
		}
		res.rungs = append(res.rungs, r)
	}
	c, err := scrape(front, "pmlmpi_gw_retries_total")
	if err != nil {
		return nil, err
	}
	res.replicas, res.retries = gwRT.Snapshot(), c["pmlmpi_gw_retries_total"]
	return res, nil
}

// feedbackRungs is one feedback post: through the admin handler into one
// store, and straight into another's Add.
type feedbackRungs struct {
	want                string
	handler, add, costs time.Duration
}

func (l *ladder) feedbackLadder(budget time.Duration, dir string, cfg stackConfig) (out []feedbackRungs, bytesPerRecord float64, err error) {
	cfg.feedbackDir = filepath.Join(dir, "feedback-handler")
	viaHandler, err := newStack(l.b, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer viaHandler.close()
	direct, err := feedback.NewStore(obs.New(cfg.log, obs.LevelInfo).Registry, feedback.Config{Dir: filepath.Join(dir, "feedback-direct")})
	if err != nil {
		return nil, 0, err
	}
	defer direct.Close()
	fb := newFBStream(l.o.seed, 0)
	accepted := 0
	deadline := time.Now().Add(budget)
	for req := 0; more(req, 40, deadline); req++ {
		op := fb.next()
		r := feedbackRungs{want: op.want}

		rec, hreq := recorded("/v1/feedback", op.payload)
		start := time.Now()
		viaHandler.admin.ServeHTTP(rec, hreq)
		r.handler = l.tr.done(spFeedbackHandler, req, start)
		got := ""
		scanField(rec.Body.Bytes(), "outcome", func(raw []byte) { got = string(raw) })
		l.check(got == op.want)

		records, err := feedback.ParseRequest(op.payload)
		if err != nil || len(records) != 1 {
			return nil, 0, fmt.Errorf("feedback payload does not parse: %v", err)
		}
		start = time.Now()
		outcome, _ := direct.Add(&records[0])
		r.add = l.tr.done(spFeedbackAdd, req, start)
		l.check(string(outcome) == op.want)
		if outcome == feedback.OutcomeAccepted {
			accepted++
		}

		start = time.Now()
		_, err = perfmodel.Costs(records[0].Collective, records[0].Features)
		r.costs = time.Since(start)
		l.check(err == nil)
		out = append(out, r)
	}
	segs, err := filepath.Glob(filepath.Join(direct.Dir(), "segment-*.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	var size int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return nil, 0, err
		}
		size += fi.Size()
	}
	return out, float64(size) / float64(accepted), nil
}

// allocs measures bytes allocated per call on a stack of its own: a select
// answered from the cache through the admin handler, and a cold Select. The
// requests and recorders are built first; a recorder's body buffer grows
// inside the handler and is counted.
func (l *ladder) allocs(cfg stackConfig, n int) (perHandlerHit, perColdSelect float64, err error) {
	s, err := newStack(l.b, cfg)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	ctx := context.Background()
	if n > len(l.pool)/2 {
		n = len(l.pool) / 2
	}
	hot := &l.pool[0]
	if _, err := s.sel.Select(ctx, hot.coll, hot.features()); err != nil {
		return 0, 0, err
	}
	recs := make([]*httptest.ResponseRecorder, n)
	reqs := make([]*http.Request, n)
	feats := make([]map[string]float64, n)
	for i := range recs {
		recs[i], reqs[i] = recorded("/v1/select", hot.payload)
		feats[i] = l.pool[len(l.pool)-1-i].features()
	}
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range recs {
		s.admin.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&mid)
	for i := range feats {
		if _, err := s.sel.Select(ctx, l.pool[len(l.pool)-1-i].coll, feats[i]); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(mid.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.TotalAlloc-mid.TotalAlloc) / float64(n), nil
}

// startup times what a restart pays: parsing the bundle in both encodings,
// compiling its forests, staging and promoting it in a registry, and the
// whole way from bytes to a first answer.
func (l *ladder) startup(data []byte, cfg stackConfig, reps int) error {
	var parseJSON, parsePMLB, compile, load, promote, cold []float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for i := 0; i < reps; i++ {
		start := time.Now()
		b, err := bundle.ParseAny(data)
		if err != nil {
			return err
		}
		parseJSON = append(parseJSON, ms(time.Since(start)))

		bin, err := b.EncodeBinary()
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := bundle.ParseAny(bin); err != nil {
			return err
		}
		parsePMLB = append(parsePMLB, ms(time.Since(start)))

		start = time.Now()
		for _, c := range b.Collectives {
			if _, err := compiled.Compile(c.Forest, len(c.Features)); err != nil {
				return err
			}
		}
		compile = append(compile, ms(time.Since(start)))

		reg := registry.New(obs.New(cfg.log, obs.LevelInfo), registry.Config{})
		start = time.Now()
		g, err := reg.LoadData(data, "bench")
		if err != nil {
			return err
		}
		load = append(load, ms(time.Since(start)))
		start = time.Now()
		if _, err := reg.Promote(g.ID()); err != nil {
			return err
		}
		promote = append(promote, ms(time.Since(start))*1e3)

		start = time.Now()
		b, err = bundle.ParseAny(data)
		if err != nil {
			return err
		}
		s, err := newStack(b, cfg)
		if err != nil {
			return err
		}
		rec, hreq := recorded("/v1/select", l.pool[0].payload)
		s.admin.ServeHTTP(rec, hreq)
		cold = append(cold, ms(time.Since(start)))
		l.checkBody(rec.Body.Bytes(), 0, 1)
		s.close()
	}
	l.ms.set("bundle.parse_json_ms", median(parseJSON))
	l.ms.set("bundle.parse_pmlb_ms", median(parsePMLB))
	l.ms.set("compiled.compile_ms", median(compile))
	l.ms.set("registry.load_ms", median(load))
	l.ms.set("registry.promote_us", median(promote))
	l.ms.set("bundle.cold_start_ms", median(cold))
	return nil
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// pick collects fn(r) over the rungs that pass keep.
func pick[T any](rs []T, keep func(*T) bool, fn func(*T) time.Duration) []float64 {
	var out []float64
	for i := range rs {
		if keep == nil || keep(&rs[i]) {
			out = append(out, ns(fn(&rs[i])))
		}
	}
	return out
}

// runLadder is the traced pass for one workload.
func runLadder(o runOpts) (*ladderReport, error) {
	dir := filepath.Join(o.outDir, "ladder-"+o.w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// In-process stacks log where the servers do: to a file, one line per
	// cold decision.
	logf, err := os.Create(filepath.Join(dir, "inproc.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cfg := stackConfig{log: logf, cacheEntries: o.sc.cacheEntries}
	if !o.w.hot && cfg.cacheEntries == 0 {
		// A cold workload's servers run with a full cache, where every put
		// evicts. A pass is too short to fill 65 536 entries, so it runs the
		// same regime on a smaller cache.
		cfg.cacheEntries = coldLadderCache
	}

	l := &ladder{o: o, ms: newMetricSet(perLayer), http: &http.Client{Timeout: 10 * time.Second}}

	sweep, sweepDur, trainDur, err := trainSweep(o.inproc)
	if err != nil {
		return nil, err
	}
	l.ms.set("train.sweep_ms", float64(sweepDur.Nanoseconds())/1e6)
	l.ms.set("train.bundle_ms", float64(trainDur.Nanoseconds())/1e6)
	data := sweep
	if o.w.paper && !o.inproc {
		if data, err = os.ReadFile(paperBundlePath); err != nil {
			return nil, err
		}
	}
	if l.b, err = bundle.ParseAny(data); err != nil {
		return nil, err
	}

	poolSize := o.sc.poolSize(o.w)
	if !o.w.hot && poolSize > 65536 {
		poolSize = 65536 // more fresh points than a pass can use
	}
	start := time.Now()
	l.pool = points(o.seed, poolSize, l.b.CollectiveNames())
	l.ms.set("loadgen.inputs_s", time.Since(start).Seconds())
	if err := fillWants(l.b, l.pool); err != nil {
		return nil, err
	}

	reps := 3
	if o.inproc {
		reps = 1
	}
	if err := l.startup(data, cfg, reps); err != nil {
		return nil, err
	}

	rt, err := newStack(l.b, cfg)
	if err != nil {
		return nil, err
	}
	l.roundtrip = serve("server", true, rt.admin, rt.close)
	defer l.roundtrip.close()
	if l.handler, err = newStack(l.b, cfg); err != nil {
		return nil, err
	}
	if l.selector, err = newStack(l.b, cfg); err != nil {
		return nil, err
	}
	bareCfg := cfg
	bareCfg.bare = true
	if l.bare, err = newStack(l.b, bareCfg); err != nil {
		return nil, err
	}
	l.leafCache = cache.New(cache.Config{MaxEntries: cfg.cacheEntries}, obs.NewRegistry())

	budget := func(share float64) time.Duration { return time.Duration(share * o.seconds * float64(time.Second)) }
	l.tr = tracer{on: true, began: time.Now()}

	// A cold pass spends fresh points; the batch section may take a quarter of
	// them, so the gateway section is left enough for its own budget.
	l.freshEnd = len(l.pool)
	singles, err := l.singles(budget(0.40), 20000)
	if err != nil {
		return nil, err
	}
	stats, _ := l.selector.sel.CacheStats()
	batchSize := gatewayBatch
	if o.w.batch > 0 {
		batchSize = o.w.batch
	}
	l.freshEnd = l.fresh + len(l.pool)/4
	batches, err := l.batches(budget(0.15), batchSize)
	if err != nil {
		return nil, err
	}
	l.freshEnd = len(l.pool)
	gw, err := l.gatewayLadder(budget(0.25), cfg)
	if err != nil {
		return nil, err
	}
	fbs, bytesPerRecord, err := l.feedbackLadder(budget(0.10), dir, cfg)
	if err != nil {
		return nil, err
	}
	allocHandler, allocCold, err := l.allocs(cfg, 2000)
	if err != nil {
		return nil, err
	}
	evictions, _ := l.selector.sel.CacheStats()

	// The workload's regime decides which samples the ladder's headline
	// rungs are read from.
	regime := func(r *rungs) bool { return r.hit == o.w.hot }
	isHit := func(r *rungs) bool { return r.hit }
	isCold := func(r *rungs) bool { return !r.hit }
	med := func(keep func(*rungs) bool, fn func(*rungs) time.Duration) float64 {
		return median(pick(singles, keep, fn))
	}
	p99 := func(keep func(*rungs) bool, fn func(*rungs) time.Duration) float64 {
		return percentile(sorted(pick(singles, keep, fn)), 0.99)
	}
	ms := l.ms
	ms.set("ladder.samples", float64(len(pick(singles, regime, func(r *rungs) time.Duration { return r.rt }))))
	ms.set("loadgen.encode_ns", med(nil, func(r *rungs) time.Duration { return r.enc }))
	ms.set("admin.roundtrip_ns", med(regime, func(r *rungs) time.Duration { return r.rt }))
	ms.set("admin.roundtrip_p99_ns", p99(regime, func(r *rungs) time.Duration { return r.rt }))
	ms.set("admin.handler_ns", med(regime, func(r *rungs) time.Duration { return r.h }))
	ms.set("admin.handler_p99_ns", p99(regime, func(r *rungs) time.Duration { return r.h }))
	ms.set("admin.wire_self_ns", med(regime, func(r *rungs) time.Duration { return r.rt - r.h }))
	ms.set("admin.codec_self_ns", med(regime, func(r *rungs) time.Duration { return r.h - r.sel }))
	ms.set("selector.select_ns", med(regime, func(r *rungs) time.Duration { return r.sel }))
	ms.set("selector.select_p99_ns", p99(regime, func(r *rungs) time.Duration { return r.sel }))
	ms.set("selector.self_ns", med(regime, func(r *rungs) time.Duration { return r.sel - r.leaves() }))
	ms.set("selector.select_hit_ns", med(isHit, func(r *rungs) time.Duration { return r.sel }))
	ms.set("selector.select_cold_ns", med(isCold, func(r *rungs) time.Duration { return r.sel }))
	ms.set("selector.telemetry_overhead_ns", med(regime, func(r *rungs) time.Duration { return r.sel - r.bare }))
	ms.set("bundle.vector_ns", med(nil, func(r *rungs) time.Duration { return r.vec }))
	ms.set("cache.get_ns", med(regime, func(r *rungs) time.Duration { return r.get }))
	ms.set("cache.get_hit_ns", med(nil, func(r *rungs) time.Duration { return r.getHit }))
	ms.set("cache.put_ns", med(isCold, func(r *rungs) time.Duration { return r.put }))
	ms.set("compiled.predict_ns", med(isCold, func(r *rungs) time.Duration { return r.pred }))
	ms.set("compiled.predict_p99_ns", p99(isCold, func(r *rungs) time.Duration { return r.pred }))
	ms.set("selector.cache_hit_ratio", float64(stats.Hits)/float64(stats.Hits+stats.Misses))
	ms.set("cache.evictions", float64(evictions.Evictions))
	ms.set("admin.alloc_bytes_per_select", allocHandler)
	ms.set("selector.alloc_bytes_per_cold_select", allocCold)

	// Closure: the self times and leaves, each a median of its own, should
	// add back up to the median round trip.
	parts := ms.vals["admin.wire_self_ns"].Value + ms.vals["admin.codec_self_ns"].Value +
		ms.vals["selector.self_ns"].Value + med(regime, func(r *rungs) time.Duration { return r.leaves() })
	ms.set("ladder.closure_share", parts/ms.vals["admin.roundtrip_ns"].Value)
	on := func(r *rungs) bool { return regime(r) && r.recorded }
	off := func(r *rungs) bool { return regime(r) && !r.recorded }
	total := func(r *rungs) time.Duration { return r.total() }
	ms.set("trace_overhead_share", med(on, total)/med(off, total)-1)

	bmed := func(fn func(*batchRungs) float64) float64 {
		var v []float64
		for i := range batches {
			v = append(v, fn(&batches[i]))
		}
		return median(v)
	}
	ms.set("admin.batch_roundtrip_ns_per_item", bmed(func(r *batchRungs) float64 { return r.rt }))
	ms.set("admin.batch_handler_ns_per_item", bmed(func(r *batchRungs) float64 { return r.h }))
	ms.set("selector.batch_ns_per_item", bmed(func(r *batchRungs) float64 { return r.sel }))
	ms.set("compiled.predict_batch_ns_per_item", bmed(func(r *batchRungs) float64 { return r.pred }))
	if o.w.batch > 0 {
		ms.set("admin.response_bytes_per_decision", bmed(func(r *batchRungs) float64 { return r.respBytes }))
	} else {
		var sizes []float64
		for i := range singles {
			if regime(&singles[i]) {
				sizes = append(sizes, float64(singles[i].respBytes))
			}
		}
		ms.set("admin.response_bytes_per_decision", median(sizes))
	}

	gmed := func(keep func(*gatewayRungs) bool, fn func(*gatewayRungs) time.Duration) float64 {
		return median(pick(gw.rungs, keep, fn))
	}
	batched := func(r *gatewayRungs) bool { return r.batch > 0 }
	ms.set("gateway.roundtrip_ns", gmed(nil, func(r *gatewayRungs) time.Duration { return r.rt }))
	ms.set("gateway.roundtrip_p99_ns", percentile(sorted(pick(gw.rungs, nil, func(r *gatewayRungs) time.Duration { return r.rt })), 0.99))
	ms.set("gateway.handler_ns", gmed(nil, func(r *gatewayRungs) time.Duration { return r.h }))
	ms.set("gateway.hop_self_ns", gmed(nil, func(r *gatewayRungs) time.Duration { return r.rt - r.direct }))
	ms.set("gateway.owner_ns", gmed(nil, func(r *gatewayRungs) time.Duration { return r.owner }))
	ms.set("gateway.partition_key_ns", gmed(nil, func(r *gatewayRungs) time.Duration { return r.pkey }))
	ms.set("gateway.batch16_call_us", gmed(batched, func(r *gatewayRungs) time.Duration { return r.batch })/1e3)
	ms.set("gateway.split_ns_per_item", gmed(batched, func(r *gatewayRungs) time.Duration { return r.batch - r.directBatch })/gatewayBatch)
	var reqTotal, reqMax float64
	for _, info := range gw.replicas {
		reqTotal += float64(info.Requests)
		reqMax = math.Max(reqMax, float64(info.Requests))
	}
	ms.set("gateway.replica_share_max", reqMax/reqTotal)
	ms.set("gateway.retries", gw.retries)
	ms.set("gateway.owner_flips", float64(gw.flips))

	fmed := func(want string, fn func(*feedbackRungs) time.Duration) float64 {
		return median(pick(fbs, func(r *feedbackRungs) bool { return want == "" || r.want == want }, fn))
	}
	add := func(r *feedbackRungs) time.Duration { return r.add }
	ms.set("admin.feedback_handler_ns", fmed("", func(r *feedbackRungs) time.Duration { return r.handler }))
	ms.set("feedback.add_accept_ns", fmed(fbAccepted, add))
	ms.set("feedback.add_duplicate_ns", fmed(fbDuplicate, add))
	ms.set("feedback.add_quarantine_ns", fmed(fbQuarantined, add))
	ms.set("feedback.bytes_per_record", bytesPerRecord)
	ms.set("perfmodel.costs_ns", fmed("", func(r *feedbackRungs) time.Duration { return r.costs }))

	for _, s := range []*stack{l.handler, l.selector, l.bare} {
		s.close()
	}
	if missing := ms.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("traced pass left metrics unset: %v", missing)
	}
	for name, v := range ms.vals {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("traced pass of %s has no samples for %s (--seconds too short?)", o.w.name, name)
		}
	}
	traceFile := filepath.Join(o.outDir, "trace_"+o.w.name+".json")
	if err := l.tr.write(traceFile, o.w, o.seed); err != nil {
		return nil, err
	}
	if l.failed == 0 {
		os.RemoveAll(dir)
	}
	return &ladderReport{Metrics: ms.vals, Attempted: l.attempted, Failed: l.failed, Spans: len(l.tr.spans), TraceFile: traceFile}, nil
}
