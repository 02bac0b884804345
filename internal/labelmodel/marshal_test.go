package labelmodel

import (
	"math"
	"testing"
)

func TestModelRoundTrip(t *testing.T) {
	m := &Model{Alpha: []float64{1.5, -0.25, 0}, Beta: []float64{0.5, 1, 2}, LogPriorOdds: -0.3}
	data, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.LogPriorOdds != m.LogPriorOdds || len(got.Alpha) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	votes := []Label{Positive, Negative, Abstain}
	if a, b := m.PosteriorRow(votes), got.PosteriorRow(votes); a != b {
		t.Errorf("posterior %v != %v after round trip", b, a)
	}
}

func TestModelMarshalRejectsBadShapes(t *testing.T) {
	if _, err := EncodeModel(nil); err == nil {
		t.Error("nil model encoded")
	}
	if _, err := EncodeModel(&Model{Alpha: []float64{1}, Beta: nil}); err == nil {
		t.Error("ragged model encoded")
	}
	if _, err := DecodeModel([]byte("{bad")); err == nil {
		t.Error("corrupt bytes decoded")
	}
	if _, err := DecodeModel([]byte(`{"Alpha":[1],"Beta":[]}`)); err == nil {
		t.Error("ragged model decoded")
	}
	if _, err := DecodeModel([]byte(`{"Alpha":[],"Beta":[]}`)); err == nil {
		t.Error("empty model decoded")
	}
}

// FuzzDecodeModel: no bytes crash DecodeModel, every model it accepts has as
// many betas as alphas and at least one, and an accepted model survives
// EncodeModel then DecodeModel bit for bit.
func FuzzDecodeModel(f *testing.F) {
	for _, seed := range []string{
		`{"Alpha":[0.7,1.2],"Beta":[-0.3,0.1],"LogPriorOdds":-0.5}`,
		`{"Alpha":[1,2],"Beta":[3]}`,
		`{}`,
		`{"Alpha":[0.7],"Beta":[-0`,
		`{"Alpha":[1e400],"Beta":[1]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil {
			return
		}
		if len(m.Alpha) == 0 || len(m.Alpha) != len(m.Beta) {
			t.Fatalf("accepted a model with %d alphas, %d betas", len(m.Alpha), len(m.Beta))
		}
		enc, err := EncodeModel(m)
		if err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		back, err := DecodeModel(enc)
		if err != nil {
			t.Fatalf("encoded model does not decode: %v\n%s", err, enc)
		}
		same := func(a, b []float64) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return false
				}
			}
			return true
		}
		if !same(m.Alpha, back.Alpha) || !same(m.Beta, back.Beta) ||
			math.Float64bits(m.LogPriorOdds) != math.Float64bits(back.LogPriorOdds) {
			t.Fatalf("round trip changed the model: %+v → %+v", m, back)
		}
	})
}
