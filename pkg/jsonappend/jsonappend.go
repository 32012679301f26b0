// Package jsonappend holds the append-style JSON primitives shared by the
// structured logger and the select wire codec. Each function appends exactly
// the bytes encoding/json.Marshal would produce for the same value, so a
// hand-written encoder built from them is byte-identical to the reflective
// one; anything outside a function's plain case is routed through
// json.Marshal itself rather than re-implemented.
package jsonappend

import (
	"encoding/json"
	"math"
	"strconv"
)

// plain marks the bytes json.Marshal copies into a string verbatim:
// printable ASCII except the quote, the backslash and the HTML-sensitive
// '<', '>' and '&' it escapes by default.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// IsPlain reports whether s encodes as itself between quotes: no escapes,
// no multi-byte sequences. The scanner side of the codec uses it too — a
// plain JSON string literal decodes to its own bytes.
func IsPlain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

// String appends s as a JSON string.
func String(dst []byte, s string) []byte {
	if IsPlain(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	// Escapes, invalid UTF-8 → U+FFFD, U+2028/9: stdlib's rules, stdlib's code.
	b, _ := json.Marshal(s) // a string cannot fail to marshal
	return append(dst, b...)
}

// Float64 appends f the way json.Marshal renders a float64 (ES6 number
// formatting). ok is false for NaN and ±Inf, which JSON cannot represent
// and json.Marshal rejects; dst is then returned unchanged.
func Float64(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	// Whole numbers — counts, sizes, most feature values — print as their
	// integer digits, which is what the shortest 'f' formatting yields for
	// them, minus the shortest-digits search. (-0 prints as "-0": not here.)
	if f > -1e15 && f < 1e15 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(dst, i, 10), true
		}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
