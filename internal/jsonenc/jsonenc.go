// Package jsonenc holds the repository's one set of append-style JSON
// primitives: a float and a string written exactly as encoding/json writes
// them, for encoders that know their schema and so need no reflection. Its
// callers — the record codec in internal/corpus and the response encoders in
// pkg/drybell/serve — are each held byte for byte to encoding/json by their
// own differential and fuzz tests; the tests here hold the primitives.
package jsonenc

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Finite reports whether JSON can carry every value: no NaN, no ±Inf. An
// encoder built on AppendFloat checks this first and leaves a value that fails
// it to encoding/json, which words the refusal.
func Finite(fs ...float64) bool {
	for _, f := range fs {
		if !(math.Abs(f) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// AppendFloat formats a finite f as encoding/json does: ES6 number-to-string,
// with the exponent cutoffs and the one-digit negative exponent of its
// floatEncoder.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// AppendString quotes s as encoding/json does: ", \ and control characters
// escaped, invalid UTF-8 as \ufffd, U+2028 and U+2029 as \u202X, and — with
// escapeHTML, json.Marshal's default and what Encoder.SetEscapeHTML(false)
// turns off — <, > and & as \u00XX.
func AppendString(b []byte, s string, escapeHTML bool) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!escapeHTML || c != '<' && c != '>' && c != '&') {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
				b = append(b, '\\', "\"\\bfnrt"[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}
