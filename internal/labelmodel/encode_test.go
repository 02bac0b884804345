package labelmodel

import (
	"strings"
	"testing"
)

// TestVoteEncodingRoundTrip pins the range contract of the checked encoder:
// the three legal votes survive a byte round trip, and every other Label
// value is refused by both the scalar and the vectorized form instead of
// being truncated into a legal-looking byte.
func TestVoteEncodingRoundTrip(t *testing.T) {
	for _, v := range []Label{Negative, Abstain, Positive} {
		b, err := VoteByte(v)
		if err != nil {
			t.Fatalf("VoteByte(%v): %v", v, err)
		}
		if got := Label(int8(b)); got != v {
			t.Errorf("round trip %v: got %v", v, got)
		}
	}
	for raw := -128; raw <= 127; raw++ {
		v := Label(raw)
		if v.Valid() {
			continue
		}
		if _, err := VoteByte(v); err == nil {
			t.Errorf("VoteByte(%d) accepted an out-of-range vote", raw)
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

// TestEncodeVotesMatchesVoteByte: the vectorized encoder writes exactly the
// bytes the scalar one returns, and refuses a destination of the wrong size.
func TestEncodeVotesMatchesVoteByte(t *testing.T) {
	row := []Label{Negative, Abstain, Positive, Positive, Abstain, Negative, Negative}
	dst := make([]byte, len(row))
	if err := EncodeVotes(dst, row); err != nil {
		t.Fatal(err)
	}
	for j, v := range row {
		want, err := VoteByte(v)
		if err != nil {
			t.Fatal(err)
		}
		if dst[j] != want {
			t.Errorf("column %d: EncodeVotes wrote %#x, VoteByte returns %#x", j, dst[j], want)
		}
	}
	if err := EncodeVotes(make([]byte, len(row)-1), row); err == nil {
		t.Error("short destination accepted")
	}
}
