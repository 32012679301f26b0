package jsonappend

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// The JSON read grammar, shared by every hand-written reader in the module:
// the select request decoder, the batch-reply span scanner and the bundle
// scanner. Each part is a function of (b, i): it takes the offset of the
// first byte of what it reads, whitespace already skipped, and returns the
// offset just past it, or -1 where encoding/json's syntax check would refuse
// the document. A reader built from them takes the shapes it knows and
// hands everything else to encoding/json on the same bytes, so encoding/json
// stays the definition of the format.

// MaxDepth is encoding/json's nesting limit; deeper documents are refused as
// it refuses them, and SkipValue's recursion is bounded by it.
const MaxDepth = 10000

// SkipSpace reads JSON whitespace, if any.
func SkipSpace(b []byte, i int) int {
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

// SkipString reads a string literal.
func SkipString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; ; {
		for i < len(b) && plainStringByte[b[i]] {
			i++
		}
		if i == len(b) {
			return -1
		}
		switch c := b[i]; {
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
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// SkipNumber reads a number (RFC 8259's grammar, which strconv.ParseFloat
// alone does not enforce).
func SkipNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = skipDigits(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = skipDigits(b, i); i < 0 {
			return -1
		}
	}
	return i
}

// skipDigits reads one or more decimal digits.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// Number reads a number and parses it as encoding/json does for a float64
// target.
func Number(b []byte, i int) (f float64, end int) {
	if end = SkipNumber(b, i); end < 0 {
		return 0, -1
	}
	if f, ok := SmallInt(b[i:end]); ok {
		return f, end
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1 // out of range: json reports a type error
	}
	return f, end
}

// SmallInt parses an integer of at most 15 digits, maybe signed. It is exact
// in a float64, so the digits' value is what ParseFloat returns ("-0"
// included).
func SmallInt(s []byte) (float64, bool) {
	neg := s[0] == '-'
	if neg {
		s = s[1:]
	}
	if len(s) > 15 {
		return 0, false
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		return -float64(n), true
	}
	return float64(n), true
}

// SkipWord reads the literal w.
func SkipWord(b []byte, i int, w string) int {
	if len(b)-i < len(w) || string(b[i:i+len(w)]) != w {
		return -1
	}
	return i + len(w)
}

// MemberKey reads an object member's key and colon: it returns the key's
// literal, quotes and escapes and all, and the offset of the value.
func MemberKey(b []byte, i int) (key []byte, value int) {
	end := SkipString(b, i)
	if end < 0 {
		return nil, -1
	}
	colon := SkipSpace(b, end)
	if colon == len(b) || b[colon] != ':' {
		return nil, -1
	}
	return b[i:end], SkipSpace(b, colon+1)
}

// AfterValue reads what follows a member or an element that ended at i
// (-1 passes through): a comma, and more is true and the offset that of the
// next one, or closing, and the offset is just past it.
func AfterValue(b []byte, i int, closing byte) (next int, more bool) {
	if i < 0 {
		return -1, false
	}
	i = SkipSpace(b, i)
	switch {
	case i == len(b):
		return -1, false
	case b[i] == ',':
		return SkipSpace(b, i+1), true
	case b[i] == closing:
		return i + 1, false
	}
	return -1, false
}

// Open reads the opening byte of a container and whatever whitespace
// follows: empty is true, and next just past the container, when closing
// comes at once; otherwise next is its first member or element. It is -1
// when b[i] is not opening.
func Open(b []byte, i int, opening, closing byte) (next int, empty bool) {
	if i >= len(b) || b[i] != opening {
		return -1, false
	}
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == closing {
		return i + 1, true
	}
	return i, false
}

// SkipValue reads any value; depth counts the containers open around it.
func SkipValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return SkipString(b, i)
	case 't':
		return SkipWord(b, i, "true")
	case 'f':
		return SkipWord(b, i, "false")
	case 'n':
		return SkipWord(b, i, "null")
	case '{', '[':
		if depth >= MaxDepth {
			return -1
		}
		object, closing := b[i] == '{', b[i]+2 // '{'+2 == '}', '['+2 == ']'
		var empty bool
		i, empty = Open(b, i, b[i], closing)
		for more := !empty; more; {
			if object {
				if _, i = MemberKey(b, i); i < 0 {
					return -1
				}
			}
			if i, more = AfterValue(b, SkipValue(b, i, depth+1), closing); i < 0 {
				return -1
			}
		}
		return i
	default:
		return SkipNumber(b, i)
	}
}

// KeyNames reports whether encoding/json stores a member with this key
// literal in the field tagged name: on an exact match or, failing that, a
// case-insensitive one of the unescaped key.
func KeyNames(key []byte, name string) bool {
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
		return false // unreachable: SkipString took the literal
	}
	return strings.EqualFold(unescaped, name)
}
