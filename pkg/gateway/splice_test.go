package gateway

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
)

// The gateway's batch merge before it spliced spans, kept as the reference
// the splicer is held to: decode the replica's reply into structs, stamp
// each item, encode the envelope again.

// reflectiveItem is one positional entry of a replica's batch response.
type reflectiveItem struct {
	Decision json.RawMessage `json:"decision,omitempty"`
	Error    string          `json:"error,omitempty"`
	Replica  string          `json:"replica,omitempty"`
}

// reflectiveMerge answers a batch of want items, all owned by the replica
// id, from that replica's reply. ok false is "unparseable batch response".
func reflectiveMerge(reply []byte, id string, want int) (merged []byte, ok bool) {
	var parsed struct {
		Results []reflectiveItem `json:"results"`
	}
	if err := json.Unmarshal(reply, &parsed); err != nil || len(parsed.Results) != want {
		return nil, false
	}
	resp := struct {
		Count   int              `json:"count"`
		Errors  int              `json:"errors"`
		Results []reflectiveItem `json:"results"`
	}{Count: want, Results: parsed.Results}
	for i := range resp.Results {
		resp.Results[i].Replica = id
		if resp.Results[i].Error != "" {
			resp.Errors++
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// spliceMerge is the same call through the span scanner and the stitcher.
func spliceMerge(reply []byte, id string, want int) (merged []byte, ok bool) {
	spans, ok := scanBatchReply(reply, 0, nil)
	if !ok || len(spans) != want {
		return nil, false
	}
	rp := &replica{id: id, annotation: jsonappend.String([]byte(`,"replica":`), id)}
	results := make([]itemResult, want)
	for i := range results {
		results[i] = itemResult{by: rp, span: spans[i]}
	}
	return appendBatchReply(nil, results, reply), true
}

// namesResultsTwice reports whether a reply gives "results" (as
// encoding/json matches keys) more than once — the one kind of document
// encoding/json takes and the scanner, by design, does not.
func namesResultsTwice(reply []byte) bool {
	var doc struct {
		Results resultsCounter `json:"results"`
	}
	return json.Unmarshal(reply, &doc) == nil && doc.Results > 1
}

type resultsCounter int

func (c *resultsCounter) UnmarshalJSON([]byte) error { *c++; return nil }

// mergedReply is the client's view of a merged reply: the documented schema.
type mergedReply struct {
	Count   int `json:"count"`
	Errors  int `json:"errors"`
	Results []struct {
		Decision any    `json:"decision"`
		Error    string `json:"error"`
		Replica  string `json:"replica"`
	} `json:"results"`
}

// checkSpliceAgainstReflective holds the splicer to the reference on one
// replica reply, for a sub-batch of want items:
//
//   - it accepts exactly the replies the reference accepts (bar "results"
//     given twice, which it refuses);
//   - its merged reply is valid JSON that reads, through the reply schema,
//     exactly as the reference's does: same count, errors, and per item the
//     same decision value, error and replica;
//   - when the replica wrote the schema's fields and nothing else, the two
//     are the same JSON value, and when it also wrote them compactly — as
//     this repository's replicas do — the same bytes.
func checkSpliceAgainstReflective(t *testing.T, reply []byte, want int) {
	t.Helper()
	const id = `r<0>"é`
	ref, refOK := reflectiveMerge(reply, id, want)
	got, gotOK := spliceMerge(reply, id, want)
	if wantOK := refOK && !namesResultsTwice(reply); gotOK != wantOK {
		t.Fatalf("reply %q for %d items: splicer accepts=%v, want %v (reference accepts=%v)", reply, want, gotOK, wantOK, refOK)
	}
	if !gotOK {
		return
	}
	var gotView, refView mergedReply
	if err := json.Unmarshal(got, &gotView); err != nil {
		t.Fatalf("reply %q: spliced %q is not valid JSON: %v", reply, got, err)
	}
	if err := json.Unmarshal(ref, &refView); err != nil {
		t.Fatalf("reply %q: reference %q is not valid JSON: %v", reply, ref, err)
	}
	if !reflect.DeepEqual(gotView, refView) {
		t.Fatalf("reply %q reads differently through the schema\nspliced:   %s\nreference: %s", reply, got, ref)
	}

	// Is the reply what encoding/json itself writes for a replica's {count,
	// errors, results: [{decision, error}]}? Then nothing is lost or
	// reordered by decoding it, and the two merges must agree outright.
	var doc struct {
		Count   int `json:"count"`
		Errors  int `json:"errors"`
		Results []struct {
			Decision json.RawMessage `json:"decision,omitempty"`
			Error    string          `json:"error,omitempty"`
		} `json:"results"`
	}
	var compact bytes.Buffer
	if json.Unmarshal(reply, &doc) != nil || json.Compact(&compact, reply) != nil {
		return
	}
	if canonical, err := json.Marshal(doc); err != nil || !bytes.Equal(canonical, compact.Bytes()) {
		return
	}
	var gotAny, refAny any
	if json.Unmarshal(got, &gotAny) != nil || json.Unmarshal(ref, &refAny) != nil || !reflect.DeepEqual(gotAny, refAny) {
		t.Fatalf("canonical reply %q: merged replies are different JSON values\nspliced:   %s\nreference: %s", reply, got, ref)
	}
	if trimmed := bytes.TrimSuffix(reply, []byte("\n")); bytes.Equal(trimmed, compact.Bytes()) && !bytes.Equal(got, ref) {
		t.Fatalf("compact canonical reply %q: merged replies differ in bytes\nspliced:   %s\nreference: %s", reply, got, ref)
	}
}

// spliceCorpus seeds the differential test and the fuzzer; each entry is a
// replica reply and the number of items the sub-batch had.
var spliceCorpus = []struct {
	reply string
	want  int
}{
	// what this repository's replicas write
	{`{"count":2,"errors":0,"results":[{"decision":{"time":"2026-01-02T03:04:05.000000006Z","collective":"allgather","features":{"log2_msg_size":12,"ppn":8},"algorithm":"ring","class":1,"probs":[0.25,0.75],"votes":[1,3],"margin":0.5,"latency_ns":1234,"generation":2,"cached":true}},{"decision":{"algorithm":"bruck","probs":null,"votes":null}}]}` + "\n", 2},
	{`{"count":3,"errors":2,"results":[{"error":"selector: unknown collective \"scan\""},{"decision":{"class":0}},{"error":"missing feature <ppn> for größe \\  "}]}` + "\n", 3},
	{`{"count":2,"errors":1,"results":[{},{"error":"x"}]}` + "\n", 2},
	{`{"count":1,"errors":0,"results":[{"decision":null}]}`, 1},
	// the same, indented, and with the top-level keys in other orders
	{"{\n  \"count\": 2,\n  \"errors\": 1,\n  \"results\": [\n    {\n      \"decision\": {\n        \"class\": 1\n      }\n    },\n    {\n      \"error\": \"nope\"\n    }\n  ]\n}\n", 2},
	{` { "results" : [ { "decision" : [ 1 , 2.5e-3 , "x" ] } , { } , null ] , "errors" : 0 , "count" : 3 } `, 3},
	{`{"results":[{"error":"first"}],"count":1,"errors":1}`, 1},
	{`{"errors":"many","results":[{"decision":1}],"count":null,"extra":{"results":[1,2,3]}}`, 1},
	// elements the schema reads differently from how they look
	{`{"results":[{"Error":"case"},{"ERROR":"upper","decision":1},{"\u0065rror":"escaped key"},{"Error":""}]}`, 4},
	{`{"results":[{"error":""},{"error":null},{"error":"x","error":""},{"error":"","error":"y"},{"error":"x","error":null}]}`, 5},
	{`{"results":[{"decision":1,"decision":{"a":[]}},{"replica":"other","decision":2},{"replica":null},{"unknown":{"error":"nested"},"decision":true}]}`, 4},
	{`{"Results":[{"decision":1}]}`, 1},
	{`{"r\u0065sults":[{"decision":1,"\u0045RROR":"x"}]}`, 1},
	{"{\"reſults\":[{\"deciſion\":1,\"error\":\"long s\"}]}", 1},
	{`{"results":[{"error":"😀 \ud800 \"\\\/\b\f\n\r\t"}]}`, 1},
	{"{\"results\":[{\"error\":\"bad utf8 \xff\xc0 here\",\"decision\":\"\xe2\x28\xa1\"}]}", 1},
	{`{"results":[{"decision":"<a&b>"},{"error":"<a&b>"}]}`, 2},
	// refused: wrong length, wrong kinds, results twice
	{`{"count":2,"errors":0,"results":[{"decision":1}]}`, 2},
	{`{"count":1,"errors":0,"results":[{"decision":1},{"decision":2}]}`, 1},
	{`{"count":0,"errors":0,"results":[]}`, 1},
	{`{"count":0,"errors":0}`, 1},
	{`{"results":null}`, 1},
	{`{"results":{"0":{}}}`, 1},
	{`{"results":[1]}`, 1},
	{`{"results":["x"]}`, 1},
	{`{"results":[[]]}`, 1},
	{`{"results":[{"error":5}]}`, 1},
	{`{"results":[{"error":{"msg":"x"}}]}`, 1},
	{`{"results":[{"error":true}]}`, 1},
	{`{"results":[{"replica":7}]}`, 1},
	{`{"results":[{"decision":1}],"results":[{"decision":2}]}`, 1},
	{`{"results":[{"error":"x"}],"RESULTS":[{}]}`, 1},
	{`{"results":null,"results":[{}]}`, 1},
	{`null`, 1}, {`[]`, 1}, {`[{"results":[{}]}]`, 1}, {`"results"`, 1}, {`7`, 1}, {``, 1}, {` `, 1},
	// refused: truncated, trailing garbage, bad grammar
	{`{"count":1,"errors":0,"results":[{"decision":{"class":1}}]`, 1},
	{`{"count":1,"errors":0,"results":[{"decision":{"class":1}`, 1},
	{`{"count":1,"errors":0,"results":[{"decision":{"class":1}}]}x`, 1},
	{`{"count":1,"errors":0,"results":[{"decision":{"class":1}}]}{}`, 1},
	{`{"count":1,"errors":0,"results":[{"decision":{"class":1}}]}]`, 1},
	{`{"count":1,"errors":0,"results":[{"decision":{"class":1}}]}}`, 1},
	{`{"results":[{}]} }`, 1},
	{`{"results":[{}}]}`, 1},
	{`{"results":[{}]]}`, 1},
	{`{}`, 1}, {`{ }`, 1}, {`{`, 1}, {`{"results":[`, 1}, {`{"results":[{`, 1}, {`{"results":[{"error"`, 1}, {`{"results":[{"error":`, 1}, {`{"results":[{"error":"`, 1},
	{`{"results":[{"decision":1},]}`, 1},
	{`{"results":[{"decision":1,}]}`, 1},
	{`{"results":[{"decision" 1}]}`, 1},
	{`{"results":[{decision:1}]}`, 1},
	{`{"results":[{"decision":01}]}`, 1},
	{`{"results":[{"decision":1.}]}`, 1},
	{`{"results":[{"decision":.5}]}`, 1},
	{`{"results":[{"decision":-}]}`, 1},
	{`{"results":[{"decision":1e}]}`, 1},
	{`{"results":[{"decision":+1}]}`, 1},
	{`{"results":[{"decision":-0.0e-0}]}`, 1},
	{`{"results":[{"decision":1E+2}]}`, 1},
	{`{"results":[{"decision":tru}]}`, 1},
	{`{"results":[{"decision":nul}]}`, 1},
	{`{"results":[{"decision":NaN}]}`, 1},
	{`{"results":[nul]}`, 1},
	{`{"results":[nullx]}`, 1},
	{`{"results":[{"error":"\x"}]}`, 1},
	{`{"results":[{"error":"\u12g4"}]}`, 1},
	{`{"results":[{"error":"\u12"}]}`, 1},
	{"{\"results\":[{\"error\":\"tab\there\"}]}", 1},
	{`{"results":[{"error":"unterminated}]}`, 1},
	{`{"results":[{"error":"x"}],"count":}`, 1},
	{`{,"results":[{}]}`, 1},
	{`{"results":[{}],}`, 1},
	{`{"results"::[{}]}`, 1},
}

func TestSpliceMatchesReflectiveMerge(t *testing.T) {
	for _, tc := range spliceCorpus {
		checkSpliceAgainstReflective(t, []byte(tc.reply), tc.want)
	}
	// encoding/json refuses more than 10000 open containers; so must the
	// scanner, wherever in the reply they are.
	for _, depth := range []int{maxReplyDepth - 1, maxReplyDepth, maxReplyDepth + 1} {
		// The value sits inside the reply object, "results" and the element.
		nested := strings.Repeat("[", depth-3) + strings.Repeat("]", depth-3)
		checkSpliceAgainstReflective(t, []byte(`{"results":[{"decision":`+nested+`}]}`), 1)
		nested = strings.Repeat(`{"a":`, depth-1) + "1" + strings.Repeat("}", depth-1)
		checkSpliceAgainstReflective(t, []byte(`{"other":`+nested+`,"results":[{}]}`), 1)
	}
}

// TestSpliceIsByteIdenticalOnReplicaOutput pins the claim the benchmark's
// answer check rests on, without the reference in between: the merged reply
// for what a replica writes is the old encoder's, byte for byte.
func TestSpliceIsByteIdenticalOnReplicaOutput(t *testing.T) {
	reply := `{"count":3,"errors":1,"results":[{"decision":{"class":1,"algorithm":"ring"}},{"error":"unknown collective \"scan\""},{}]}` + "\n"
	const want = `{"count":3,"errors":1,"results":[{"decision":{"class":1,"algorithm":"ring"},"replica":"r1"},{"error":"unknown collective \"scan\"","replica":"r1"},{"replica":"r1"}]}` + "\n"
	got, ok := spliceMerge([]byte(reply), "r1", 3)
	if !ok || string(got) != want {
		t.Fatalf("spliceMerge = %q (ok=%v)\nwant %q", got, ok, want)
	}
}

func FuzzSpliceBatchVsReflective(f *testing.F) {
	for _, tc := range spliceCorpus {
		f.Add([]byte(tc.reply), uint8(tc.want))
	}
	f.Fuzz(func(t *testing.T, reply []byte, want uint8) {
		checkSpliceAgainstReflective(t, reply, max(1, int(want))) // a sub-batch has at least one item
	})
}
