package labelmodel

import (
	"strings"
	"testing"
)

// TestVoteEncodingRoundTrip pins the range contract of the checked encoder:
// the three legal votes survive a byte round trip, and every other Label
// value is refused instead of being truncated into a legal-looking byte.
func TestVoteEncodingRoundTrip(t *testing.T) {
	for _, v := range []Label{Negative, Abstain, Positive} {
		var b [1]byte
		if err := EncodeVotes(b[:], []Label{v}); err != nil {
			t.Fatalf("EncodeVotes(%v): %v", v, err)
		}
		if got := Label(int8(b[0])); got != v {
			t.Errorf("round trip %v: got %v", v, got)
		}
	}
	for raw := -128; raw <= 127; raw++ {
		v := Label(raw)
		if v.Valid() {
			continue
		}
		row := []Label{Positive, v, Negative}
		err := EncodeVotes(make([]byte, len(row)), row)
		if err == nil {
			t.Errorf("EncodeVotes accepted out-of-range vote %d", raw)
		} else if !strings.Contains(err.Error(), "column 1") {
			t.Errorf("EncodeVotes error does not name the bad column: %v", err)
		}
	}
}

// TestEncodeVotesCanonicalBytes: the encoder writes each vote as its int8
// two's-complement byte (−1 → 0xff), and refuses a destination of the wrong
// size.
func TestEncodeVotesCanonicalBytes(t *testing.T) {
	row := []Label{Negative, Abstain, Positive, Positive, Abstain, Negative, Negative}
	dst := make([]byte, len(row))
	if err := EncodeVotes(dst, row); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xff, 0, 1, 1, 0, 0xff, 0xff}
	for j := range row {
		if dst[j] != want[j] {
			t.Errorf("column %d: EncodeVotes wrote %#x, want %#x", j, dst[j], want[j])
		}
	}
	if err := EncodeVotes(make([]byte, len(row)-1), row); err == nil {
		t.Error("short destination accepted")
	}
}
