package selector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// This file is the request half of the wire codec of the select data plane,
// shared by the server (pkg/admin) and the gateway so both tiers accept,
// reject and render exactly the same documents: the request rules and
// limits, and the decoder. The decoder is reflection-free on the shapes real
// clients send and defers to encoding/json — on the same bytes — for
// everything else, so encoding/json remains the definition of the format.
// It reads with the module's one JSON grammar (pkg/jsonappend), as the
// batch-reply scanner does; wire_reply.go holds the reply half.

// The request limits of the select endpoints.
const (
	// MaxSelectBody bounds a /v1/select body, in bytes.
	MaxSelectBody = 1 << 20
	// MaxBatchBody bounds a /v1/select/batch body, in bytes.
	MaxBatchBody = 8 << 20
	// MaxBatchItems bounds the items of one /v1/select/batch body.
	MaxBatchItems = 1024
)

// ParseSelect reads r's /v1/select body into buf and decodes it. An error
// is the client's fault, and its text is the 400 reply's: a malformed body,
// no collective, or a derived feature sent as input.
func ParseSelect(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request) (BatchRequest, error) {
	if err := obs.ReadBody(buf, w, r, MaxSelectBody); err != nil {
		return BatchRequest{}, badBody(err)
	}
	req, err := DecodeSelect(buf.Bytes())
	if err != nil {
		return req, badBody(err)
	}
	if req.Collective == "" {
		return req, errors.New(`missing "collective"`)
	}
	return req, bundle.CheckRequestFeatures(req.Features)
}

// ParseBatch reads r's /v1/select/batch body into buf and decodes it. An
// error is the client's fault, and its text is the 400 reply's.
func ParseBatch(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request) ([]BatchRequest, error) {
	if err := obs.ReadBody(buf, w, r, MaxBatchBody); err != nil {
		return nil, badBody(err)
	}
	reqs, err := DecodeBatch(buf.Bytes())
	if err != nil {
		return nil, badBody(err)
	}
	return reqs, checkBatch(reqs)
}

// ParseBatchRaw is ParseBatch for a forwarder: beside each item it returns
// the item's text, as DecodeBatchRaw does, which may alias buf.
func ParseBatchRaw(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request) ([]BatchRequest, [][]byte, error) {
	if err := obs.ReadBody(buf, w, r, MaxBatchBody); err != nil {
		return nil, nil, badBody(err)
	}
	reqs, raw, err := DecodeBatchRaw(buf.Bytes())
	if err != nil {
		return nil, nil, badBody(err)
	}
	return reqs, raw, checkBatch(reqs)
}

func badBody(err error) error { return fmt.Errorf("bad request body: %w", err) }

// checkBatch applies the batch limits, and refuses the whole batch when an
// item sends a derived feature: that is a client bug, not an item failure.
func checkBatch(reqs []BatchRequest) error {
	switch {
	case len(reqs) == 0:
		return errors.New(`empty batch: "requests" must have at least one item`)
	case len(reqs) > MaxBatchItems:
		return fmt.Errorf("batch of %d items exceeds the limit of %d", len(reqs), MaxBatchItems)
	}
	for i := range reqs {
		if err := bundle.CheckRequestFeatures(reqs[i].Features); err != nil {
			return fmt.Errorf("requests[%d]: %w", i, err)
		}
	}
	return nil
}

// DecodeSelect decodes a /v1/select body with json.Unmarshal's semantics
// and error text: the whole body must be one JSON value.
func DecodeSelect(body []byte) (BatchRequest, error) {
	sc := scanners.Get().(*scanner)
	defer scanners.Put(sc)
	var req BatchRequest
	if end := sc.item(body, jsonappend.SkipSpace(body, 0), &req); end >= 0 && jsonappend.SkipSpace(body, end) == len(body) {
		return req, nil
	}
	var slow BatchRequest // its own variable: &slow escapes, req need not
	err := json.Unmarshal(body, &slow)
	return slow, err
}

// DecodeBatch decodes a /v1/select/batch body ({"requests": [...]}) with
// json.Unmarshal's semantics and error text.
func DecodeBatch(body []byte) ([]BatchRequest, error) {
	sc := scanners.Get().(*scanner)
	defer scanners.Put(sc)
	if reqs, ok := sc.batch(body, nil); ok {
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
	sc := scanners.Get().(*scanner)
	defer scanners.Put(sc)
	if reqs, ok := sc.batch(body, &raw); ok {
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
// accepts is valid JSON that json.Unmarshal decodes to the same value. Its
// methods read with the shared grammar, as functions of (b, i).
type scanner struct {
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

// features reads {"name": number, ...}. Repeated names overwrite, as in
// encoding/json.
func (sc *scanner) features(b []byte, i int) (map[string]float64, int) {
	i, empty := jsonappend.Open(b, i, '{', '}')
	if i < 0 {
		return nil, -1
	}
	m := make(map[string]float64, sc.hint)
	for more := !empty; more; {
		key, at := jsonappend.MemberKey(b, i)
		if at < 0 || !jsonappend.IsPlain(key[1:len(key)-1]) {
			return nil, -1
		}
		v, end := jsonappend.Number(b, at)
		if end < 0 {
			return nil, -1
		}
		m[sc.intern(key[1:len(key)-1])] = v
		if i, more = jsonappend.AfterValue(b, end, '}'); i < 0 {
			return nil, -1
		}
	}
	sc.hint = len(m)
	return m, i
}

// item reads one {"collective": ..., "features": ...} object into req.
func (sc *scanner) item(b []byte, i int, req *BatchRequest) int {
	*req = BatchRequest{}
	i, empty := jsonappend.Open(b, i, '{', '}')
	var sawCollective, sawFeatures bool
	for more := i >= 0 && !empty; more; {
		key, at := jsonappend.MemberKey(b, i)
		switch {
		case at < 0:
			return -1
		case string(key) == `"collective"` && !sawCollective:
			sawCollective = true
			// Only a literal of plain bytes: its contents are its value.
			if i = jsonappend.SkipString(b, at); i < 0 || !jsonappend.IsPlain(b[at+1:i-1]) {
				return -1
			}
			req.Collective = sc.intern(b[at+1 : i-1])
		case string(key) == `"features"` && !sawFeatures:
			sawFeatures = true
			if req.Features, i = sc.features(b, at); i < 0 {
				return -1
			}
		default:
			return -1
		}
		if i, more = jsonappend.AfterValue(b, i, '}'); i < 0 {
			return -1
		}
	}
	return i
}

// batch reads the {"requests": [item, ...]} envelope that is all of b. With
// raw set, it also collects each item's span of b.
func (sc *scanner) batch(b []byte, raw *[][]byte) ([]BatchRequest, bool) {
	i, empty := jsonappend.Open(b, jsonappend.SkipSpace(b, 0), '{', '}')
	if i < 0 || empty {
		return nil, false
	}
	key, at := jsonappend.MemberKey(b, i)
	if at < 0 || string(key) != `"requests"` {
		return nil, false
	}
	i, empty = jsonappend.Open(b, at, '[', ']')
	reqs := []BatchRequest{}
	var req BatchRequest
	for more := i >= 0 && !empty; more; {
		end := sc.item(b, i, &req)
		if end < 0 {
			return nil, false
		}
		reqs = append(reqs, req)
		if raw != nil {
			*raw = append(*raw, b[i:end])
		}
		if i, more = jsonappend.AfterValue(b, end, ']'); i < 0 {
			return nil, false
		}
	}
	i, more := jsonappend.AfterValue(b, i, '}')
	return reqs, i >= 0 && !more && jsonappend.SkipSpace(b, i) == len(b)
}
