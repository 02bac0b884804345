package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// reference encodes v with encoding/json, HTML escaping on or off, without
// the Encoder's trailing newline.
func reference(t *testing.T, v any, escapeHTML bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		for _, escapeHTML := range []bool{true, false} {
			if got, want := AppendString(nil, s, escapeHTML), reference(t, s, escapeHTML); !bytes.Equal(got, want) {
				t.Errorf("AppendString(%q, %v) = %s, want %s", s, escapeHTML, got, want)
				return false
			}
		}
		return true
	}
	for _, s := range []string{
		"", "plain", `quote " and \ backslash`, "ctl \x00\x01\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>",
		"bad \xff utf8 \xc3", "\xe2\x80", "sep \u2028 and \u2029", "\u2027\u202a", "é 東京 🙂",
	} {
		check(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) bool {
		if !Finite(f) {
			return true
		}
		if got, want := AppendFloat(nil, f), reference(t, f, true); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
			return false
		}
		return true
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 1e-7, 9.999999e-7, 1e20, 1e21, 1.5e21, -1e-7, 1e-10, 1e-100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 1.0 / 3,
	} {
		check(f)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// quick draws few small magnitudes; walk the exponent range as bits.
	if err := quick.Check(func(bits uint64) bool { return check(math.Float64frombits(bits)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFinite(t *testing.T) {
	if !Finite() || !Finite(0, -1, math.MaxFloat64) {
		t.Error("finite values refused")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Finite(1, f) {
			t.Errorf("Finite accepted %v", f)
		}
	}
}
