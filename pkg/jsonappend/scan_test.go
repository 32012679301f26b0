package jsonappend

import (
	"encoding/json"
	"strings"
	"testing"
)

// checkGrammarAgainstValid holds the shared grammar to json.Valid: b is one
// value with nothing but whitespace around it exactly when encoding/json
// says it is valid.
func checkGrammarAgainstValid(t *testing.T, b []byte) {
	t.Helper()
	end := SkipValue(b, SkipSpace(b, 0), 0)
	got := end >= 0 && SkipSpace(b, end) == len(b)
	if want := json.Valid(b); got != want {
		t.Fatalf("grammar says %q is one value: %v, json.Valid says %v", b, got, want)
	}
}

// grammarCorpus seeds the differential test and the fuzzer.
var grammarCorpus = []string{
	``, ` `, `null`, `true`, `false`, `nul`, `tru`, `nullx`, `True`, `NaN`,
	`0`, `-0`, `1`, `-`, `01`, `-01`, `1.`, `.5`, `1.5`, `1e`, `1e+`, `1E+2`, `-0.0e-0`, `+1`, `0x10`, `1e999`, `12345678901234567890`,
	`""`, `"a"`, `"\""`, `"\\"`, `"\/\b\f\n\r\t"`, `"é"`, `"\u12g4"`, `"\u12"`, `"\x"`, `"\`, `"unterminated`,
	"\"tab\there\"", "\"nul\x00\"", "\"bad utf8 \xff\xc0\"", "\"\xe2\x28\xa1\"", `"😀 \ud800"`,
	`{}`, `{ }`, `[]`, `[ ]`, `{"a":1}`, `{"a" : [1, 2.5e-3, "x", null, true, {}]}`, ` {"a":{"b":{"c":[]}}} `,
	`{`, `[`, `}`, `]`, `{"a"}`, `{"a":}`, `{"a" 1}`, `{a:1}`, `{"a":1,}`, `[1,]`, `[,1]`, `{,"a":1}`, `{"a"::1}`, `[1 2]`,
	`{"a":1}{}`, `[] []`, `1 2`, `{"a":1}x`, "{}\n", "\t[\r\n]\t",
}

func TestGrammarMatchesValid(t *testing.T) {
	for _, doc := range grammarCorpus {
		checkGrammarAgainstValid(t, []byte(doc))
	}
	// encoding/json refuses more than MaxDepth open containers, in any mix.
	for _, depth := range []int{MaxDepth - 1, MaxDepth, MaxDepth + 1} {
		checkGrammarAgainstValid(t, []byte(strings.Repeat("[", depth)+strings.Repeat("]", depth)))
		checkGrammarAgainstValid(t, []byte(strings.Repeat(`{"a":`, depth)+"1"+strings.Repeat("}", depth)))
		checkGrammarAgainstValid(t, []byte(strings.Repeat(`[{"a":`, depth/2)+"[]"+strings.Repeat("}]", depth/2)))
	}
}

func FuzzSkipValueVsValid(f *testing.F) {
	for _, doc := range grammarCorpus {
		f.Add([]byte(doc))
	}
	f.Fuzz(checkGrammarAgainstValid)
}

func TestKeyNamesFoldsAsEncodingJSON(t *testing.T) {
	type target struct {
		Field int `json:"nodes"`
	}
	for _, key := range []string{
		`"nodes"`, `"Nodes"`, `"NODES"`, `"node"`, `"nodess"`, `"\u006eodes"`, `"\u004Eodes"`, `"nodeſ"`, `"ｎodes"`, `""`,
	} {
		var v target
		if err := json.Unmarshal([]byte(`{`+key+`:1}`), &v); err != nil {
			t.Fatal(err)
		}
		if got, want := KeyNames([]byte(key), "nodes"), v.Field == 1; got != want {
			t.Errorf("KeyNames(%s, nodes) = %v, encoding/json stores it: %v", key, got, want)
		}
	}
}
