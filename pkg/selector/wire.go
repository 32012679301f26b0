package selector

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
)

// This file is the wire codec of the select data plane, shared by the
// server (pkg/admin) and the gateway so both tiers accept, reject and
// render exactly the same documents. It is reflection-free on the shapes
// real clients send and defers to encoding/json — on the same bytes — for
// everything else, so encoding/json remains the definition of the format.

// DecodeSelect decodes a /v1/select body with json.Unmarshal's semantics
// and error text: the whole body must be one JSON value.
func DecodeSelect(body []byte) (BatchRequest, error) {
	sc := getScanner(body)
	defer sc.release()
	var req BatchRequest
	if sc.item(&req) && sc.atEnd() {
		return req, nil
	}
	var slow BatchRequest // its own variable: &slow escapes, req need not
	err := json.Unmarshal(body, &slow)
	return slow, err
}

// DecodeBatch decodes a /v1/select/batch body ({"requests": [...]}) with
// json.Unmarshal's semantics and error text.
func DecodeBatch(body []byte) ([]BatchRequest, error) {
	sc := getScanner(body)
	defer sc.release()
	if reqs, ok := sc.batch(nil); ok {
		return reqs, nil
	}
	var env batchEnvelope
	err := json.Unmarshal(body, &env)
	return env.Requests, err
}

// DecodeBatchRaw is DecodeBatch for a forwarder: beside each decoded item it
// returns the item's text as the client wrote it, so a proxy can route on
// the value and pass the bytes on untouched. On the shapes the scanner takes,
// raw[i] is body's own span of item i; otherwise encoding/json finds the
// items on the same bytes and raw[i] is its copy. Either way a server that
// decodes raw[i] inside a fresh envelope reads reqs[i].
func DecodeBatchRaw(body []byte) (reqs []BatchRequest, raw [][]byte, err error) {
	sc := getScanner(body)
	defer sc.release()
	if reqs, ok := sc.batch(&raw); ok {
		return reqs, raw, nil
	}
	var env batchEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return env.Requests, nil, err
	}
	var text rawEnvelope
	if err := json.Unmarshal(body, &text); err != nil {
		return nil, nil, err // unreachable: the same body just decoded
	}
	raw = raw[:0] // the scanner may have collected some spans before it gave up
	if text.Requests.times == 1 {
		for _, item := range text.Requests.items {
			raw = append(raw, item)
		}
		return env.Requests, raw, nil
	}
	// The body names "requests" more than once (or never), and encoding/json
	// decodes a later array into the items of the earlier one, field by
	// field: no span of the body reads as that item, so write one.
	for i := range env.Requests {
		item, err := json.Marshal(env.Requests[i])
		if err != nil {
			return nil, nil, err
		}
		raw = append(raw, item)
	}
	return env.Requests, raw, nil
}

// batchEnvelope is the /v1/select/batch body as encoding/json reads it.
type batchEnvelope struct {
	Requests []BatchRequest `json:"requests"`
}

// rawEnvelope reads the same body for the text of its items.
type rawEnvelope struct {
	Requests rawItems `json:"requests"`
}

// rawItems is the value of a "requests" key, and a count of how many times
// the body gave one.
type rawItems struct {
	items []json.RawMessage
	times int
}

func (r *rawItems) UnmarshalJSON(b []byte) error {
	r.times++
	return json.Unmarshal(b, &r.items)
}

// scanner is the fast path of the decoder. It accepts only the canonical
// shape — objects whose keys are exactly "collective" (a string), "features"
// (an object of numbers) and, for the envelope, "requests" (an array of such
// items), each at most once, with plain ASCII strings — and reports failure
// on anything else without saying why: the caller then runs json.Unmarshal,
// which either decodes what the scanner would not (escapes, other key
// spellings, duplicates, null) or produces the error. Every body the scanner
// accepts is valid JSON that json.Unmarshal decodes to the same value.
type scanner struct {
	b []byte
	i int
	// names interns collective and feature names across the items of a
	// batch and across requests: clients send the same few names every
	// time, and the decoded strings outlive the pooled body buffer.
	names  []string
	cursor int
	// hint is the size of the last feature object, for sizing the next map.
	hint int
}

// maxInterned bounds the intern table; names beyond it are just allocated.
const maxInterned = 64

var scanners = sync.Pool{New: func() any { return new(scanner) }}

func getScanner(body []byte) *scanner {
	sc := scanners.Get().(*scanner)
	sc.b, sc.i = body, 0
	return sc
}

func (sc *scanner) release() {
	sc.b = nil // the body belongs to the caller; do not pin it from the pool
	scanners.Put(sc)
}

func (sc *scanner) skipSpace() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\r', '\n':
			sc.i++
		default:
			return
		}
	}
}

// lit consumes c after optional whitespace.
func (sc *scanner) lit(c byte) bool {
	sc.skipSpace()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

func (sc *scanner) atEnd() bool {
	sc.skipSpace()
	return sc.i == len(sc.b)
}

// str consumes a string literal made of plain bytes only and returns its
// contents, which for such a literal are its decoded value.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.lit('"') {
		return nil, false
	}
	start := sc.i
	for sc.i < len(sc.b) {
		if sc.b[sc.i] == '"' {
			s := sc.b[start:sc.i]
			sc.i++
			return s, jsonappend.IsPlain(s)
		}
		sc.i++
	}
	return nil, false
}

// intern returns b as a string, reusing an earlier allocation when the
// name was seen before. Names usually recur in the same order, so the slot
// after the previous hit is tried before scanning the table.
func (sc *scanner) intern(b []byte) string {
	if c := sc.cursor; c < len(sc.names) && sc.names[c] == string(b) {
		sc.cursor = c + 1
		return sc.names[c]
	}
	for j, n := range sc.names {
		if n == string(b) {
			sc.cursor = j + 1
			return n
		}
	}
	s := string(b)
	if len(sc.names) < maxInterned {
		sc.names = append(sc.names, s)
		sc.cursor = len(sc.names)
	}
	return s
}

// number consumes a JSON number (RFC 8259 grammar, checked here because
// strconv.ParseFloat alone is more permissive) and parses it as
// encoding/json does for a float64 target.
func (sc *scanner) number() (float64, bool) {
	sc.skipSpace()
	b, start := sc.b, sc.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = skipDigits(b, i); i == start || b[i-1] == '-' {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i = skipDigits(b, frac); i == frac {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i = skipDigits(b, exp); i == exp {
			return 0, false
		}
	}
	sc.i = i
	if digits := b[start:i]; len(digits) <= 15 && skipDigits(digits, 1) == len(digits) {
		// A short integer, maybe signed: exact in a float64, so the digits'
		// value is what ParseFloat returns ("-0" included).
		neg := digits[0] == '-'
		if neg {
			digits = digits[1:]
		}
		n := 0
		for _, c := range digits {
			n = n*10 + int(c-'0')
		}
		if neg {
			return -float64(n), true
		}
		return float64(n), true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil // out of range: json reports a type error
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// features consumes {"name": number, ...}. Repeated names overwrite, as in
// encoding/json.
func (sc *scanner) features() (map[string]float64, bool) {
	if !sc.lit('{') {
		return nil, false
	}
	m := make(map[string]float64, sc.hint)
	if sc.lit('}') {
		return m, true
	}
	for {
		name, ok := sc.str()
		if !ok || !sc.lit(':') {
			return nil, false
		}
		v, ok := sc.number()
		if !ok {
			return nil, false
		}
		m[sc.intern(name)] = v
		if sc.lit(',') {
			continue
		}
		sc.hint = len(m)
		return m, sc.lit('}')
	}
}

// item consumes one {"collective": ..., "features": ...} object into req.
func (sc *scanner) item(req *BatchRequest) bool {
	*req = BatchRequest{}
	if !sc.lit('{') {
		return false
	}
	if sc.lit('}') {
		return true
	}
	var sawCollective, sawFeatures bool
	for {
		key, ok := sc.str()
		if !ok || !sc.lit(':') {
			return false
		}
		switch {
		case string(key) == "collective" && !sawCollective:
			sawCollective = true
			v, ok := sc.str()
			if !ok {
				return false
			}
			req.Collective = sc.intern(v)
		case string(key) == "features" && !sawFeatures:
			sawFeatures = true
			if req.Features, ok = sc.features(); !ok {
				return false
			}
		default:
			return false
		}
		if sc.lit(',') {
			continue
		}
		return sc.lit('}')
	}
}

// batch consumes the {"requests": [item, ...]} envelope. With raw set, it
// also collects each item's span of the body.
func (sc *scanner) batch(raw *[][]byte) ([]BatchRequest, bool) {
	if !sc.lit('{') {
		return nil, false
	}
	key, ok := sc.str()
	if !ok || string(key) != "requests" || !sc.lit(':') || !sc.lit('[') {
		return nil, false
	}
	reqs := []BatchRequest{}
	if !sc.lit(']') {
		var req BatchRequest
		for {
			sc.skipSpace()
			start := sc.i
			if !sc.item(&req) {
				return nil, false
			}
			reqs = append(reqs, req)
			if raw != nil {
				*raw = append(*raw, sc.b[start:sc.i])
			}
			if sc.lit(',') {
				continue
			}
			if !sc.lit(']') {
				return nil, false
			}
			break
		}
	}
	return reqs, sc.lit('}') && sc.atEnd()
}

// AppendDecision appends d as json.Marshal(d) renders it, byte for byte:
// same keys, order, omissions and number, time and string formatting. What
// the direct encoder does not cover (NaN or ±Inf values, a timestamp outside
// RFC 3339's years) goes through json.Marshal, whose error is returned.
func AppendDecision(dst []byte, d *Decision) ([]byte, error) {
	if out, ok := appendDecision(dst, d); ok {
		return out, nil
	}
	b, err := json.Marshal(d)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// RFC 3339 covers years 0–9999; a day inside either end keeps any zone
// offset within range too.
var (
	minWireTime = time.Date(0, 1, 2, 0, 0, 0, 0, time.UTC).Unix()
	maxWireTime = time.Date(9999, 12, 30, 0, 0, 0, 0, time.UTC).Unix()
)

func appendDecision(b []byte, d *Decision) ([]byte, bool) {
	if u := d.Time.Unix(); u < minWireTime || u > maxWireTime {
		return b, false
	}
	if _, off := d.Time.Zone(); off <= -24*3600 || off >= 24*3600 {
		return b, false // RFC 3339 zone hours stop at 23
	}
	b = append(b, `{"time":"`...)
	b = d.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')
	if d.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = jsonappend.String(b, d.RequestID)
	}
	b = append(b, `,"collective":`...)
	b = jsonappend.String(b, d.Collective)
	b = append(b, `,"features":`...)
	b, ok := appendFeatures(b, d.Features)
	if !ok {
		return b, false
	}
	b = append(b, `,"algorithm":`...)
	b = jsonappend.String(b, d.Algorithm)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(d.Class), 10)
	b = append(b, `,"probs":`...)
	if d.Probs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range d.Probs {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = jsonappend.Float64(b, p); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"votes":`...)
	if d.Votes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range d.Votes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"margin":`...)
	if b, ok = jsonappend.Float64(b, d.Margin); !ok {
		return b, false
	}
	if d.LowMargin {
		b = append(b, `,"low_margin":true`...)
	}
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, d.LatencyNS, 10)
	if d.Generation != 0 {
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, d.Generation, 10)
	}
	if d.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}'), true
}

// featureOrder caches the sorted key list of the last feature map rendered
// or hashed (PartitionKey walks maps in the same order). Clients send the
// same feature names request after request, so checking that a map has
// exactly those keys replaces collecting and sorting them.
var featureOrder atomic.Pointer[[]string]

// sortedFeatureNames collects and sorts m's keys, and leaves the list in
// featureOrder for the next map with the same keys.
func sortedFeatureNames(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	featureOrder.Store(&keys)
	return keys
}

// appendFeatures renders the feature map with sorted keys, as encoding/json
// orders map keys.
func appendFeatures(b []byte, m map[string]float64) ([]byte, bool) {
	if m == nil {
		return append(b, "null"...), true
	}
	if cached := featureOrder.Load(); cached != nil && len(*cached) == len(m) {
		if out, ok := appendFeaturesInOrder(b, m, *cached); ok {
			return out, true
		}
	}
	return appendFeaturesInOrder(b, m, sortedFeatureNames(m))
}

// appendFeaturesInOrder renders m's entries in the order of keys, which has
// len(m) entries. ok is false when keys is not m's key set (one is missing)
// or a value is not representable; b is then unchanged as the caller sees it.
func appendFeaturesInOrder(b []byte, m map[string]float64, keys []string) (out []byte, ok bool) {
	out = append(b, '{')
	for i, k := range keys {
		v, present := m[k]
		if !present {
			return b, false
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = jsonappend.String(out, k)
		out = append(out, ':')
		if out, ok = jsonappend.Float64(out, v); !ok {
			return b, false
		}
	}
	return append(out, '}'), true
}
