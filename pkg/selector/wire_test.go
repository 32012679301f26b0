package selector

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// sameRequest compares decoded requests bit for bit (reflect.DeepEqual
// would call 0 and -0 equal) and distinguishes a nil map from an empty one,
// as encoding/json's callers can.
func sameRequest(a, b BatchRequest) bool {
	if a.Collective != b.Collective || len(a.Features) != len(b.Features) ||
		(a.Features == nil) != (b.Features == nil) {
		return false
	}
	for k, v := range a.Features {
		w, ok := b.Features[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecodeAgainstStdlib holds both decoders to json.Unmarshal on body:
// same error text, and on success the same value.
func checkDecodeAgainstStdlib(t *testing.T, body []byte) {
	t.Helper()
	var wantOne BatchRequest
	wantErr := json.Unmarshal(body, &wantOne)
	gotOne, gotErr := DecodeSelect(body)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeSelect(%q) error = %v, json.Unmarshal says %v", body, gotErr, wantErr)
	}
	if wantErr == nil && !sameRequest(gotOne, wantOne) {
		t.Fatalf("DecodeSelect(%q) = %+v, json.Unmarshal gives %+v", body, gotOne, wantOne)
	}

	var wantEnv batchEnvelope
	wantErr = json.Unmarshal(body, &wantEnv)
	got, gotErr := DecodeBatch(body)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeBatch(%q) error = %v, json.Unmarshal says %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if len(got) != len(wantEnv.Requests) || (got == nil) != (wantEnv.Requests == nil) {
		t.Fatalf("DecodeBatch(%q) = %d items (nil=%v), json.Unmarshal gives %d (nil=%v)",
			body, len(got), got == nil, len(wantEnv.Requests), wantEnv.Requests == nil)
	}
	for i := range got {
		if !sameRequest(got[i], wantEnv.Requests[i]) {
			t.Fatalf("DecodeBatch(%q)[%d] = %+v, json.Unmarshal gives %+v", body, i, got[i], wantEnv.Requests[i])
		}
	}
}

// checkDecodeRawAgainstStdlib holds DecodeBatchRaw to DecodeBatch (which
// checkDecodeAgainstStdlib holds to json.Unmarshal), and its raw items to
// the forwarder's invariant: a fresh envelope around them decodes, by
// encoding/json, to the same requests.
func checkDecodeRawAgainstStdlib(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := DecodeBatch(body)
	got, raw, gotErr := DecodeBatchRaw(body)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeBatchRaw(%q) error = %v, DecodeBatch says %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if len(got) != len(want) || len(raw) != len(want) {
		t.Fatalf("DecodeBatchRaw(%q) = %d items, %d raw; DecodeBatch gives %d", body, len(got), len(raw), len(want))
	}
	forwarded := []byte(`{"requests":[`)
	for i := range got {
		if !sameRequest(got[i], want[i]) {
			t.Fatalf("DecodeBatchRaw(%q)[%d] = %+v, DecodeBatch gives %+v", body, i, got[i], want[i])
		}
		if i > 0 {
			forwarded = append(forwarded, ',')
		}
		forwarded = append(forwarded, raw[i]...)
	}
	forwarded = append(forwarded, "]}"...)
	var env batchEnvelope
	if err := json.Unmarshal(forwarded, &env); err != nil {
		t.Fatalf("DecodeBatchRaw(%q): forwarded body %q does not decode: %v", body, forwarded, err)
	}
	if len(env.Requests) != len(want) {
		t.Fatalf("DecodeBatchRaw(%q): forwarded body %q has %d items, want %d", body, forwarded, len(env.Requests), len(want))
	}
	for i := range want {
		if !sameRequest(env.Requests[i], want[i]) {
			t.Fatalf("DecodeBatchRaw(%q): forwarded item %d %q decodes to %+v, want %+v", body, i, raw[i], env.Requests[i], want[i])
		}
	}
}

// decodeCorpus seeds the differential test and the fuzzer: canonical
// bodies the scanner takes, and one body for every reason it hands over to
// encoding/json.
var decodeCorpus = []string{
	`{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`,
	` { "features" : { "ppn" : 4 , "x" : -0 } , "collective" : "allgather" } ` + "\n",
	`{"collective":"a","features":{}}`,
	`{"collective":"a"}`,
	`{"features":{"ppn":1}}`,
	`{}`,
	`{"requests":[{"collective":"alltoall","features":{"ppn":48,"num_nodes":32}},{"collective":"broadcast","features":{"ppn":1e2,"x":-1.5E-3}}]}`,
	`{"requests":[]}`,
	`{"requests":[{}]}`,
	`{"requests":null}`,
	`{"requests":[null]}`,
	`{"requests":[{"collective":"a","features":{"k":1}}],"extra":true}`,
	`{"Requests":[{"Collective":"a","FEATURES":{"k":1}}]}`,
	// trailing garbage, truncation, empty input
	`{"collective":"a","features":{"k":1}}xyz`,
	`{"collective":"a","features":{"k":1}} {"collective":"b"}`,
	`{"requests":[{"collective":"a"}]}]`,
	`{"collective":"a","features":{"k":1}`,
	`{"requests":[{"collective"`,
	``, ` `, `null`, `[]`, `"collective"`, `{nope`,
	// escapes, non-ASCII, invalid UTF-8, control characters
	`{"collective":"alltoall","features":{"p\"pn":1}}`,
	`{"collective":"größe","features":{"µ":1}}`,
	"{\"collective\":\"a\xffb\",\"features\":{\"k\xc0\":1}}",
	"{\"collective\":\"a\tb\"}",
	`{"collective":"<a&b>","features":{"<":1}}`,
	// keys: unknown, other case, duplicates
	`{"collective":"a","features":{"k":1},"trace":true}`,
	`{"Collective":"a","Features":{"k":1}}`,
	`{"collective":"a","collective":"b"}`,
	`{"features":{"k":1},"features":{"j":2}}`,
	`{"collective":"a","features":{"k":1,"k":2}}`,
	// values of the wrong kind
	`{"collective":null,"features":null}`,
	`{"collective":7}`,
	`{"collective":"a","features":[1,2]}`,
	`{"collective":"a","features":{"k":"1"}}`,
	`{"collective":"a","features":{"k":true}}`,
	`{"collective":"a","features":{"k":null}}`,
	`{"collective":"a","features":{"k":{"nested":1}}}`,
	// numbers: grammar edges ParseFloat alone would accept, and range
	`{"features":{"k":01}}`, `{"features":{"k":1.}}`, `{"features":{"k":.5}}`,
	`{"features":{"k":+1}}`, `{"features":{"k":-}}`, `{"features":{"k":1e}}`,
	`{"features":{"k":1e+}}`, `{"features":{"k":0x10}}`, `{"features":{"k":1_000}}`,
	`{"features":{"k":Inf}}`, `{"features":{"k":NaN}}`, `{"features":{"k":-0}}`,
	`{"features":{"k":-0.0e-0}}`, `{"features":{"k":1e999}}`, `{"features":{"k":-1e999}}`,
	`{"features":{"k":4.9e-324}}`, `{"features":{"k":1e-999}}`,
	`{"features":{"k":123456789012345678901234567890}}`,
	`{"features":{"k":0.1000000000000000055511151231257827021181583404541015625}}`,
	// punctuation
	`{"collective":"a",}`, `{,"collective":"a"}`, `{"collective" "a"}`,
	`{"features":{"k":1,}}`, `{"features":{"k" 1}}`, `{"requests":[{"collective":"a"},]}`,
	`{"requests":[{"collective":"a"} {"collective":"b"}]}`,
	// the envelope key more than once: encoding/json merges the arrays item by item
	`{"requests":[{"collective":"a","features":{"k":1}}],"requests":[{"features":{"j":2}}]}`,
	`{"requests":[{"collective":"a"},{"collective":"b"}],"Requests":[{"collective":"c"}],"requests":[null,{"features":{}}]}`,
	`{"requests":[{"collective":"a"}],"requests":null}`,
	`{"requests":null,"requests":[{"collective":"a","x":[1,{"y":"z"}]}, null ]}`,
}

func TestDecodeMatchesStdlib(t *testing.T) {
	for _, body := range decodeCorpus {
		checkDecodeAgainstStdlib(t, []byte(body))
		checkDecodeRawAgainstStdlib(t, []byte(body))
	}
}

func FuzzDecodeSelectVsStdlib(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgainstStdlib(t, body)
		checkDecodeRawAgainstStdlib(t, body)
	})
}

// TestDecodeFastPathTakesCanonicalBodies guards against the scanner
// silently rejecting what real clients send, which the differential tests
// cannot see (the fallback would still answer correctly, just reflectively).
func TestDecodeFastPathTakesCanonicalBodies(t *testing.T) {
	item := `{"collective":"alltoall","features":{"log2_msg_size":21.5,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	sc := new(scanner)
	var req BatchRequest
	if sc.item([]byte(item), 0, &req) != len(item) {
		t.Errorf("scanner rejected a canonical select body")
	}
	var raw [][]byte
	if reqs, ok := sc.batch([]byte(`{"requests":[`+item+`, `+item+`]}`), &raw); !ok || len(reqs) != 2 {
		t.Errorf("scanner rejected a canonical batch body (ok=%v, %d items)", ok, len(reqs))
	}
	// The spans are the items exactly: no leading space, nothing after the brace.
	if len(raw) != 2 || string(raw[0]) != item || string(raw[1]) != item {
		t.Errorf("scanner's item spans = %q, want the item twice", raw)
	}
}

func TestDecodedStringsDoNotAliasTheBody(t *testing.T) {
	body := []byte(`{"collective":"alltoall","features":{"ppn":48}}`)
	req, err := DecodeSelect(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x' // the caller's buffer goes back to a pool
	}
	if req.Collective != "alltoall" || req.Features["ppn"] != 48 {
		t.Errorf("decoded request changed with the body buffer: %+v", req)
	}
}

// checkEncodeAgainstStdlib holds AppendDecision to json.Marshal: same bytes,
// same error-ness, and dst untouched on error.
func checkEncodeAgainstStdlib(t *testing.T, d *Decision) {
	t.Helper()
	want, wantErr := json.Marshal(d)
	got, gotErr := AppendDecision([]byte("prefix"), d)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("AppendDecision error = %v, json.Marshal says %v (decision %+v)", gotErr, wantErr, d)
	}
	if wantErr != nil {
		want = nil
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("AppendDecision differs from json.Marshal\n got: %s\nwant: prefix%s", got, want)
	}
}

func TestAppendDecisionMatchesStdlib(t *testing.T) {
	base := Decision{
		Time:       time.Date(2026, 9, 28, 10, 17, 3, 123456789, time.FixedZone("", 2*3600)),
		RequestID:  "4f1c2a9b00000001",
		Collective: "alltoall",
		Features:   map[string]float64{"ppn": 48, "log2_msg_size": 21.5, "mem_bw_gbs": 204.8, "a": 1e-7, "z": 1e21},
		Algorithm:  "pairwise",
		Class:      1,
		Probs:      []float64{0.01, 0.94, 0.03, 0, 0.02},
		Votes:      []int{1, 94, 3, 0, 2},
		Margin:     0.91,
		LatencyNS:  4321,
	}
	variants := map[string]func(d *Decision){
		"base":            func(d *Decision) {},
		"all omitempty":   func(d *Decision) { d.RequestID = ""; d.LowMargin = false; d.Generation = 0; d.Cached = false },
		"all set":         func(d *Decision) { d.LowMargin = true; d.Generation = 7; d.Cached = true },
		"nil collections": func(d *Decision) { d.Features, d.Probs, d.Votes = nil, nil, nil },
		"empty":           func(d *Decision) { d.Features, d.Probs, d.Votes = map[string]float64{}, []float64{}, []int{} },
		"zero time":       func(d *Decision) { d.Time = time.Time{} },
		"utc":             func(d *Decision) { d.Time = d.Time.UTC() },
		"whole second":    func(d *Decision) { d.Time = d.Time.Truncate(time.Second) },
		"year 10000":      func(d *Decision) { d.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"year -1":         func(d *Decision) { d.Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"zone 25h":        func(d *Decision) { d.Time = d.Time.In(time.FixedZone("", 25*3600)) },
		"escapes": func(d *Decision) {
			d.Collective = "all\"to\\all"
			d.Algorithm = "<pair&wise>\n"
			d.RequestID = "größe "
			d.Features = map[string]float64{"µ": 1, "a\xffb": 2, "<": 3, "\x7f": 4}
		},
		"floats": func(d *Decision) {
			d.Probs = []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e-6, 9.999e-7, 1e21, 9.99e20, -1e-9, 1.0 / 3}
			d.Margin = -0.0
		},
		"nan feature": func(d *Decision) { d.Features["ppn"] = math.NaN() },
		"inf prob":    func(d *Decision) { d.Probs[0] = math.Inf(-1) },
		"inf margin":  func(d *Decision) { d.Margin = math.Inf(1) },
		"negatives":   func(d *Decision) { d.Class = -3; d.LatencyNS = math.MinInt64; d.Votes = []int{-1, math.MaxInt64} },
		"many features": func(d *Decision) {
			d.Features = map[string]float64{}
			for i := 0; i < 40; i++ { // spills the encoder's stack key buffer
				d.Features[strings.Repeat("k", i%7)+string(rune('a'+i))] = float64(i)
			}
		},
	}
	for name, mutate := range variants {
		d := base
		d.Features = copyFeatures(base.Features)
		d.Probs = append([]float64(nil), base.Probs...)
		mutate(&d)
		t.Run(name, func(t *testing.T) { checkEncodeAgainstStdlib(t, &d) })
	}
}

func FuzzEncodeDecisionVsStdlib(f *testing.F) {
	f.Add(int64(1790590623), int64(123456789), 7200, "4f1c2a9b00000001", "alltoall", "pairwise",
		"ppn", 48.0, "log2_msg_size", 21.5, 0.94, 0.91, 1, int64(4321), uint64(3), uint8(0))
	f.Add(int64(0), int64(0), 0, "", "", "", "", 0.0, "", math.Copysign(0, -1), 5e-324, 1e21, -1, int64(-1), uint64(0), uint8(0xff))
	f.Add(int64(253402300800), int64(1), 90000, "a\"b", "<all&>", "größe ", "k\xff", math.NaN(),
		"\x00", math.Inf(1), 1e-7, math.MaxFloat64, 1<<40, int64(math.MaxInt64), uint64(math.MaxUint64), uint8(0x55))
	f.Add(int64(-62135596800), int64(999999999), -86399, "\\", "\t", "\x7f", "same", 1.0, "same", 2.0, 1e-6, 9.999e20, 0, int64(0), uint64(1), uint8(2))
	f.Fuzz(func(t *testing.T, sec, nsec int64, zone int, reqID, collective, algorithm, k1 string, v1 float64,
		k2 string, v2, prob, margin float64, class int, latency int64, gen uint64, flags uint8) {
		d := Decision{
			Time:       time.Unix(sec, nsec).In(time.FixedZone("", zone)),
			RequestID:  reqID,
			Collective: collective,
			Algorithm:  algorithm,
			Class:      class,
			Margin:     margin,
			LowMargin:  flags&1 != 0,
			LatencyNS:  latency,
			Generation: gen,
			Cached:     flags&2 != 0,
		}
		if flags&4 == 0 { // else nil map
			d.Features = map[string]float64{k1: v1, k2: v2}
		}
		if flags&8 == 0 { // else nil slices
			d.Probs = []float64{prob, v1, 1 - prob}
			d.Votes = []int{class, int(latency)}
		}
		if flags&16 != 0 {
			d.Time = d.Time.UTC()
		}
		checkEncodeAgainstStdlib(t, &d)
	})
}

// TestRepliesEqualCompactedReflectiveReplies runs both encoders over the
// decisions a seeded request stream produces on the paper bundle — cold,
// cached, with and without model-health fields — and requires today's reply
// to be the previous (indented, reflective) reply with the whitespace
// removed, byte for byte.
func TestRepliesEqualCompactedReflectiveReplies(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, obs.NewForTest(), Config{Cache: cache.New(cache.Config{MaxEntries: 1024}, obs.NewRegistry())})
	ctx := context.Background()
	points := synth.Points(1, 200)
	points = append(points, points[:50]...) // and again, from the cache
	var cachedSeen int
	for i, pt := range points {
		collective := []string{"allgather", "alltoall"}[i%2]
		d, err := s.Select(ctx, collective, pt)
		if err != nil {
			t.Fatal(err)
		}
		if d.Cached {
			cachedSeen++
		}
		var old bytes.Buffer
		enc := json.NewEncoder(&old)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, old.Bytes()); err != nil {
			t.Fatal(err)
		}
		got, err := AppendDecision(nil, d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("point %d: reply differs from the compacted reflective reply\n got: %s\nwant: %s", i, got, want.Bytes())
		}
	}
	if cachedSeen == 0 {
		t.Error("stream produced no cached decision; the cached reply shape went unchecked")
	}
}
