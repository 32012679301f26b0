package gateway

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"

	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
)

// This file is the reply half of the batch path. The gateway never needs to
// understand a replica's decisions, only to find where each one starts and
// ends, so it scans the reply for the spans of the "results" elements and
// copies those bytes into the merged reply, adding its "replica" annotation.

// resultSpan locates one element of a replica's "results" array in the
// buffer the reply was read into.
type resultSpan struct {
	start, end int
	// bare: null or an object without members — the annotation is then the
	// element's only member and takes no comma.
	bare bool
	// failed: the element carries a non-empty "error".
	failed bool
}

// maxReplyDepth is encoding/json's nesting limit; deeper documents are
// refused as it refuses them, and the scanner's recursion is bounded by it.
const maxReplyDepth = 10000

// scanBatchReply walks the batch reply that ends buf and starts at from,
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
// field into items that no single span of the document spells. ok false is
// the gateway's "unparseable batch response": the sub-batch is retried.
func scanBatchReply(buf []byte, from int, spans []resultSpan) ([]resultSpan, bool) {
	b, i := buf, skipSpace(buf, from)
	if i == len(b) || b[i] != '{' {
		return spans, false
	}
	seen := false
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return spans, false // an empty object has no results
	}
	for more := true; more; {
		key, at := memberKey(b, i)
		switch {
		case at < 0:
			return spans, false
		case !keyNames(key, "results"):
			i = skipValue(b, at, 1)
		case seen:
			return spans, false
		default:
			seen = true
			spans, i = resultSpans(b, at, spans)
		}
		if i, more = afterValue(b, i, '}'); i < 0 {
			return spans, false
		}
	}
	return spans, seen && skipSpace(b, i) == len(b)
}

// The scanner's parts are functions of (b, i): each takes the offset of the
// first byte of what it reads, whitespace already skipped, and returns the
// offset just past it, or -1 where encoding/json's syntax check would
// refuse the document.

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// plainStringByte marks the bytes a string literal holds as themselves:
// everything but its closing quote, the escape character and controls.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < 0x100; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipString reads a string literal.
func skipString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); {
		switch c := b[i]; {
		case plainStringByte[c]:
			i++
		case c == '"':
			return i + 1
		case c != '\\' || i+1 == len(b):
			return -1
		case b[i+1] == 'u':
			if i+6 > len(b) || !isHex4(b[i+2:i+6]) {
				return -1
			}
			i += 6
		case strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0:
			i += 2
		default:
			return -1
		}
	}
	return -1
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// skipNumber reads a number.
func skipNumber(b []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// skipWord reads the literal w.
func skipWord(b []byte, i int, w string) int {
	if len(b)-i < len(w) || string(b[i:i+len(w)]) != w {
		return -1
	}
	return i + len(w)
}

// memberKey reads an object member's key and colon: it returns the key's
// literal, quotes and escapes and all, and the offset of the value.
func memberKey(b []byte, i int) (key []byte, value int) {
	end := skipString(b, i)
	if end < 0 {
		return nil, -1
	}
	colon := skipSpace(b, end)
	if colon == len(b) || b[colon] != ':' {
		return nil, -1
	}
	return b[i:end], skipSpace(b, colon+1)
}

// afterValue reads what follows a member or an element that ended at i
// (-1 passes through): a comma, and more is true and the offset that of the
// next one, or closing, and the offset is just past it.
func afterValue(b []byte, i int, closing byte) (next int, more bool) {
	if i < 0 {
		return -1, false
	}
	i = skipSpace(b, i)
	switch {
	case i == len(b):
		return -1, false
	case b[i] == ',':
		return skipSpace(b, i+1), true
	case b[i] == closing:
		return i + 1, false
	}
	return -1, false
}

// skipValue reads any value; depth counts the containers open around it.
func skipValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case 't':
		return skipWord(b, i, "true")
	case 'f':
		return skipWord(b, i, "false")
	case 'n':
		return skipWord(b, i, "null")
	case '{', '[':
		if depth >= maxReplyDepth {
			return -1
		}
		object, closing := b[i] == '{', b[i]+2 // '{'+2 == '}', '['+2 == ']'
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == closing {
			return i + 1
		}
		for more := true; more; {
			if object {
				if _, i = memberKey(b, i); i < 0 {
					return -1
				}
			}
			if i, more = afterValue(b, skipValue(b, i, depth+1), closing); i < 0 {
				return -1
			}
		}
		return i
	default:
		return skipNumber(b, i)
	}
}

// skipStringOrNull reads what encoding/json takes for a string field, and
// reports whether it was a string other than "".
func skipStringOrNull(b []byte, i int) (end int, nonEmpty, null bool) {
	if i < len(b) && b[i] == 'n' {
		return skipWord(b, i, "null"), false, true
	}
	end = skipString(b, i)
	return end, end > i+2, false
}

// resultSpans reads the "results" array, appending each element's span.
func resultSpans(b []byte, i int, spans []resultSpan) ([]resultSpan, int) {
	if i == len(b) || b[i] != '[' {
		return spans, -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return spans, i + 1
	}
	for more := true; more; {
		sp, end := resultSpanAt(b, i)
		if end < 0 {
			return spans, -1
		}
		spans = append(spans, sp)
		if i, more = afterValue(b, end, ']'); i < 0 {
			return spans, -1
		}
	}
	return spans, i
}

// resultSpanAt reads one entry of "results": an object or null.
func resultSpanAt(b []byte, i int) (sp resultSpan, end int) {
	sp.start = i
	if i < len(b) && b[i] == 'n' {
		sp.end, sp.bare = skipWord(b, i, "null"), true
		return sp, sp.end
	}
	if i == len(b) || b[i] != '{' {
		return sp, -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		sp.end, sp.bare = i+1, true
		return sp, sp.end
	}
	for more := true; more; {
		key, at := memberKey(b, i)
		switch {
		case at < 0:
			return sp, -1
		case keyNames(key, "error"):
			var nonEmpty, null bool
			if i, nonEmpty, null = skipStringOrNull(b, at); !null {
				sp.failed = nonEmpty // a later "error" replaces an earlier one; null leaves it
			}
		case keyNames(key, "replica"):
			i, _, _ = skipStringOrNull(b, at)
		default:
			i = skipValue(b, at, 3) // open around it: the reply, "results", the element
		}
		if i, more = afterValue(b, i, '}'); i < 0 {
			return sp, -1
		}
	}
	sp.end = i
	return sp, i
}

// keyNames reports whether encoding/json stores a member with this key
// literal in the field tagged name: on an exact match or, failing that, a
// case-insensitive one of the unescaped key.
func keyNames(key []byte, name string) bool {
	text := key[1 : len(key)-1]
	if string(text) == name {
		return true
	}
	if len(text) < len(name) { // escapes and multi-byte letters only lengthen it
		return false
	}
	if bytes.IndexByte(text, '\\') < 0 {
		return strings.EqualFold(string(text), name)
	}
	var unescaped string
	if json.Unmarshal(key, &unescaped) != nil {
		return false // unreachable: skipString took the literal
	}
	return strings.EqualFold(unescaped, name)
}

// itemResult is the answer to one item of a client's batch.
type itemResult struct {
	// by is the replica whose reply holds span; nil when the gateway itself
	// answers, with err.
	by   *replica
	span resultSpan
	err  string
}

// appendBatchReply renders the client's reply from the answers, in request
// order: each replica element is copied out of replies as the replica wrote
// it, with "replica" added as its last member, and each gateway-made error
// is written as the single-server schema writes one. The result is what
// json.Encoder gives for {count, errors, results: [{decision, error,
// replica}]} whenever the replicas wrote their elements that way (compact,
// in that key order, empty fields omitted) — as this repository's do.
func appendBatchReply(out []byte, results []itemResult, replies []byte) []byte {
	failed := 0
	for i := range results {
		if results[i].by == nil || results[i].span.failed {
			failed++
		}
	}
	out = append(out, `{"count":`...)
	out = strconv.AppendInt(out, int64(len(results)), 10)
	out = append(out, `,"errors":`...)
	out = strconv.AppendInt(out, int64(failed), 10)
	out = append(out, `,"results":[`...)
	for i := range results {
		if i > 0 {
			out = append(out, ',')
		}
		switch res := &results[i]; {
		case res.by == nil:
			out = append(out, `{"error":`...)
			out = jsonappend.String(out, res.err)
		case res.span.bare:
			out = append(out, '{')
			out = append(out, res.by.annotation[1:]...)
		default:
			out = append(out, replies[res.span.start:res.span.end-1]...)
			out = append(out, res.by.annotation...)
		}
		out = append(out, '}')
	}
	return append(out, "]}\n"...)
}
