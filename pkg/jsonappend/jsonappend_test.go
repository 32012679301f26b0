package jsonappend

import (
	"encoding/json"
	"math"
	"testing"
)

func TestStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain", "with space", `quo"te`, `back\slash`, "<html>&amp;", "tab\t", "nl\n", "\x00\x1f", "\x7f",
		"größe", "µs", "日本語", "  ", "a\xffb", "\xc0\xaf", "\xed\xa0\x80", "trunc\xe6\x97",
	} {
		want, _ := json.Marshal(s)
		if got := String([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("String(%q) = %s, json.Marshal gives %s", s, got[1:], want)
		}
		// Plain is conservative: it may say no to a string that happens to
		// render verbatim (valid UTF-8, DEL), never yes to one that does not.
		if IsPlain(s) && string(want) != `"`+s+`"` {
			t.Errorf("IsPlain(%q) = true, but json.Marshal gives %s", s, want)
		}
	}
}

func TestFloat64MatchesMarshal(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 48, 204.8, 0.1, 1.0 / 3, 100, 1e6, 123456789, 1e15 - 1, 1e15, 1e15 + 2, -1e15,
		9007199254740992, 9007199254740993, 1e20, 9.99e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
		1e-5, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 5e-324, math.SmallestNonzeroFloat64, -2.5e-8,
		float64(math.MaxInt64), float64(math.MinInt64), 0.30000000000000004, 21.534287612345678,
	}
	for _, f := range values {
		want, _ := json.Marshal(f)
		got, ok := Float64([]byte("x"), f)
		if !ok || string(got) != "x"+string(want) {
			t.Errorf("Float64(%v) = %s (ok=%v), json.Marshal gives %s", f, got[1:], ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := Float64([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("Float64(%v) = %s, ok=%v; want it refused and dst untouched", f, got, ok)
		}
	}
}

func FuzzAppendVsMarshal(f *testing.F) {
	f.Add("plain", 48.0)
	f.Add("a\xff<>&\"\\\n", -0.0)
	f.Add(" ", 1e21)
	f.Fuzz(func(t *testing.T, s string, v float64) {
		want, _ := json.Marshal(s)
		if got := String(nil, s); string(got) != string(want) {
			t.Fatalf("String(%q) = %s, json.Marshal gives %s", s, got, want)
		}
		want, err := json.Marshal(v)
		got, ok := Float64(nil, v)
		if ok != (err == nil) || (ok && string(got) != string(want)) {
			t.Fatalf("Float64(%v) = %s (ok=%v), json.Marshal gives %s (%v)", v, got, ok, want, err)
		}
	})
}
