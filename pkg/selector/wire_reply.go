package selector

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
)

// This file is the reply half of the wire codec: the decision and the
// /v1/select/batch envelope as the server writes them, and the span scanner
// a forwarder reads a batch reply with.

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

// AppendBatchReply renders the /v1/select/batch reply for results, newline
// included, as json.Encoder renders {"count", "errors", "results"} whose
// elements are {"decision", "error"} with both fields omitempty.
func AppendBatchReply(b []byte, results []BatchResult) ([]byte, error) {
	errs := 0
	for _, res := range results {
		if res.Err != nil {
			errs++
		}
	}
	b = AppendBatchHead(b, len(results), errs)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		if res.Err != nil {
			b = AppendItemError(b, res.Err.Error())
			continue
		}
		b = append(b, '{')
		if res.Decision != nil {
			b = append(b, `"decision":`...)
			var err error
			if b, err = AppendDecision(b, res.Decision); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	return append(b, BatchTail...), nil
}

// AppendBatchHead opens a batch reply of count results, errors of them
// failed. The caller appends the elements, comma-separated, then BatchTail.
func AppendBatchHead(b []byte, count, errors int) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, int64(errors), 10)
	return append(b, `,"results":[`...)
}

// BatchTail closes a batch reply opened by AppendBatchHead.
const BatchTail = "]}\n"

// AppendItemError appends the results element of an item that failed with
// msg: {"error": msg}, or {} for an empty msg, which omitempty drops.
func AppendItemError(b []byte, msg string) []byte {
	if msg == "" {
		return append(b, "{}"...)
	}
	b = append(b, `{"error":`...)
	b = jsonappend.String(b, msg)
	return append(b, '}')
}

// ResultSpan locates one element of a batch reply's "results" array in the
// buffer the reply was read into.
type ResultSpan struct {
	Start, End int
	// Bare: null or an object without members — a member appended to the
	// element is then its only one and takes no comma.
	Bare bool
	// Failed: the element carries a non-empty "error".
	Failed bool
}

// ScanBatchReply walks the batch reply that ends b and starts at from,
// and appends the span of each "results" element to spans. It accepts a
// document when json.Unmarshal would decode it into
//
//	struct{ Results []struct {
//		Decision json.RawMessage `json:"decision"`
//		Error    string          `json:"error"`
//		Replica  string          `json:"replica"`
//	} `json:"results"` }
//
// with at least one result — the whole JSON grammar, no trailing garbage,
// encoding/json's key matching (case-insensitive, after unescaping), null
// where a string or an object is expected, "count" and "errors" ignored,
// keys in any order — with one exception: a document that names "results"
// twice is refused, because encoding/json merges the two arrays field by
// field into items that no single span of the document spells.
func ScanBatchReply(b []byte, from int, spans []ResultSpan) ([]ResultSpan, bool) {
	i, empty := jsonappend.Open(b, jsonappend.SkipSpace(b, from), '{', '}')
	if i < 0 || empty { // an empty object has no results
		return spans, false
	}
	seen := false
	for more := true; more; {
		key, at := jsonappend.MemberKey(b, i)
		switch {
		case at < 0:
			return spans, false
		case !jsonappend.KeyNames(key, "results"):
			i = jsonappend.SkipValue(b, at, 1)
		case seen:
			return spans, false
		default:
			seen = true
			spans, i = resultSpans(b, at, spans)
		}
		if i, more = jsonappend.AfterValue(b, i, '}'); i < 0 {
			return spans, false
		}
	}
	return spans, seen && jsonappend.SkipSpace(b, i) == len(b)
}

// skipStringOrNull reads what encoding/json takes for a string field, and
// reports whether it was a string other than "".
func skipStringOrNull(b []byte, i int) (end int, nonEmpty, null bool) {
	if i < len(b) && b[i] == 'n' {
		return jsonappend.SkipWord(b, i, "null"), false, true
	}
	end = jsonappend.SkipString(b, i)
	return end, end > i+2, false
}

// resultSpans reads the "results" array, appending each element's span.
func resultSpans(b []byte, i int, spans []ResultSpan) ([]ResultSpan, int) {
	i, empty := jsonappend.Open(b, i, '[', ']')
	for more := i >= 0 && !empty; more; {
		sp, end := resultSpanAt(b, i)
		if end < 0 {
			return spans, -1
		}
		spans = append(spans, sp)
		if i, more = jsonappend.AfterValue(b, end, ']'); i < 0 {
			return spans, -1
		}
	}
	return spans, i
}

// resultSpanAt reads one entry of "results": an object or null.
func resultSpanAt(b []byte, i int) (sp ResultSpan, end int) {
	sp.Start = i
	if i < len(b) && b[i] == 'n' {
		sp.End, sp.Bare = jsonappend.SkipWord(b, i, "null"), true
		return sp, sp.End
	}
	i, empty := jsonappend.Open(b, i, '{', '}')
	switch {
	case i < 0:
		return sp, -1
	case empty:
		sp.End, sp.Bare = i, true
		return sp, i
	}
	for more := true; more; {
		key, at := jsonappend.MemberKey(b, i)
		switch {
		case at < 0:
			return sp, -1
		case jsonappend.KeyNames(key, "error"):
			var nonEmpty, null bool
			if i, nonEmpty, null = skipStringOrNull(b, at); !null {
				sp.Failed = nonEmpty // a later "error" replaces an earlier one; null leaves it
			}
		case jsonappend.KeyNames(key, "replica"):
			i, _, _ = skipStringOrNull(b, at)
		default:
			i = jsonappend.SkipValue(b, at, 3) // open around it: the reply, "results", the element
		}
		if i, more = jsonappend.AfterValue(b, i, '}'); i < 0 {
			return sp, -1
		}
	}
	sp.End = i
	return sp, i
}
