package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// sameResponse holds writeResult to writeJSON — the parent's json.Encoder
// with SetEscapeHTML(false) — for one value: same status, same headers, same
// bytes, whether the encoder took the value or declined it.
func sameResponse[V any](t testing.TB, v V, appendV func([]byte, V) ([]byte, bool)) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeResult(got, v, appendV)
	writeJSON(want, http.StatusOK, v)
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
		t.Fatalf("%+v: response %d %v, want %d %v", v, got.Code, got.Header(), want.Code, want.Header())
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%+v:\n got %q\nwant %q", v, got.Body.Bytes(), want.Body.Bytes())
	}
}

// wireStrings are LF names, categories and model names no sane caller
// registers; the wire has to carry them as encoding/json would all the same.
var wireStrings = []string{
	"", "keyword_celebrity", "model-based", `quote " backslash \ slash /`, "ctl \x00\x01\b\f\n\r\t\x1f\x7f",
	"<script>a&b</script>", "bad \xff utf8 \xc3", "\xe2\x80", "sep \u2028 and \u2029", "é 東京 🙂",
}

var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, 0.5, 1e-7, -1e-7, 1e-6, 1e21, 1e20, 0.1 + 0.2, 1.0 / 3, 0.9999999999999999,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func genLabelResult(rng *rand.Rand) LabelResult {
	var r LabelResult
	if rng.Intn(4) > 0 {
		p := wireFloats[rng.Intn(len(wireFloats))]
		if rng.Intn(2) == 0 {
			p = rng.Float64()
		}
		r.Posterior = &p
	}
	if n := rng.Intn(6); n > 0 {
		r.Votes = make([]VoteRecord, n-1) // 1 is the empty, non-nil slice
		for j := range r.Votes {
			r.Votes[j] = VoteRecord{
				LF:       wireStrings[rng.Intn(len(wireStrings))],
				Category: wireStrings[rng.Intn(len(wireStrings))],
				Vote:     rng.Intn(3) - 1,
			}
		}
	}
	r.Degraded = rng.Intn(3) == 0
	return r
}

func TestWireEncodersMatchEncodingJSON(t *testing.T) {
	for _, model := range wireStrings {
		for _, score := range wireFloats {
			sameResponse(t, PredictResult{Model: model, Version: 3, Score: score, Positive: score >= 0.5, BatchSize: 32}, appendPredictResult)
		}
	}
	sameResponse(t, PredictResult{Version: math.MinInt64, BatchSize: math.MaxInt64}, appendPredictResult)

	for _, p := range wireFloats {
		sameResponse(t, LabelResult{Posterior: &p}, appendLabelResult)
		sameResponse(t, LabelResult{Posterior: &p, Votes: []VoteRecord{}, Degraded: true}, appendLabelResult)
	}
	sameResponse(t, LabelResult{}, appendLabelResult)
	sameResponse(t, []LabelResult(nil), appendLabelResults)
	sameResponse(t, []LabelResult{}, appendLabelResults)

	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		rs := make([]LabelResult, rng.Intn(5))
		for k := range rs {
			rs[k] = genLabelResult(rng)
			sameResponse(t, rs[k], appendLabelResult)
		}
		sameResponse(t, rs, appendLabelResults)
		sameResponse(t, PredictResult{
			Model: wireStrings[rng.Intn(len(wireStrings))], Version: rng.Intn(1000) - 10,
			Score: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)), Positive: rng.Intn(2) == 0, BatchSize: rng.Intn(64),
		}, appendPredictResult)
	}
}

// TestWireEncodersDeclineWhatJSONCannotCarry: a NaN or ±Inf is not the
// encoders' to refuse. They decline, and the caller gets what the parent's
// writeJSON gave it: the status line and no body.
func TestWireEncodersDeclineWhatJSONCannotCarry(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendPredictResult(nil, PredictResult{Score: f}); ok {
			t.Errorf("predict encoder took score %v", f)
		}
		if _, ok := appendLabelResult(nil, LabelResult{Posterior: &f}); ok {
			t.Errorf("label encoder took posterior %v", f)
		}
		half := 0.5
		if _, ok := appendLabelResults(nil, []LabelResult{{Posterior: &half}, {Posterior: &f}}); ok {
			t.Errorf("batch encoder took posterior %v", f)
		}
		rec := httptest.NewRecorder()
		writeResult(rec, []LabelResult{{Posterior: &half}, {Posterior: &f}}, appendLabelResults)
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
			t.Errorf("declined batch answered %d %q, want the reference's 200 and no body", rec.Code, rec.Body.Bytes())
		}
	}
}

func FuzzWireEncoders(f *testing.F) {
	f.Add("topic-classifier", 1, 0.982, true, 32, "keyword_celebrity", "pattern", 1, 0.5, true, false, uint8(3))
	f.Add("<m>&\u2028", -1, 1e-7, false, 0, "a\"b\\c\x01", "bad \xff", -1, math.Copysign(0, -1), true, true, uint8(1))
	f.Add("", 0, 1e21, false, 1, "", "", 0, math.NaN(), true, false, uint8(2))
	f.Add("m", 7, math.Inf(1), true, 1, "lf", "c", 0, 0.0, false, true, uint8(0))
	f.Fuzz(func(t *testing.T, model string, version int, score float64, positive bool, batch int,
		lf, category string, vote int, posterior float64, hasPosterior, degraded bool, votes uint8) {
		sameResponse(t, PredictResult{Model: model, Version: version, Score: score, Positive: positive, BatchSize: batch}, appendPredictResult)
		r := LabelResult{Degraded: degraded}
		if hasPosterior {
			r.Posterior = &posterior
		}
		if votes > 0 {
			r.Votes = make([]VoteRecord, votes%8) // a multiple of 8: empty but not nil
			for j := range r.Votes {
				r.Votes[j] = VoteRecord{LF: lf + strings.Repeat("x", j), Category: category, Vote: vote + j}
			}
		}
		sameResponse(t, r, appendLabelResult)
		sameResponse(t, []LabelResult{r, {}, r}, appendLabelResults)
	})
}

// splitLimit is the element limit the scanner tests run under: small, so that
// generated bodies reach it.
const splitLimit = 4

// checkSplit holds splitBatch to the parent's json.Decoder on one body:
//   - the scanner accepts ⇒ the decoder accepts too, decodes the very same
//     elements, and nothing but whitespace follows the array;
//   - the decoder rejects ⇒ the scanner declines, or stopped at the limit
//     before it reached what the decoder rejects;
//   - the scanner reports over ⇒ the array does hold more elements than the
//     limit, if it is an array at all;
//   - the decoder reads an array, nothing follows it and it cannot nest past
//     maxWireDepth ⇒ the scanner does not decline;
//   - decodeBatch, the path a declined body takes, agrees with the decoder
//     except that it refuses bytes after the array.
func checkSplit(t testing.TB, body []byte) {
	t.Helper()
	var ref []json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(body))
	refErr := dec.Decode(&ref)
	trailing := refErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0

	elems, over, ok := splitBatch(body, splitLimit)
	switch {
	case ok && over:
		if refErr == nil && len(ref) <= splitLimit {
			t.Fatalf("%q: scanner reports more than %d elements, the decoder found %d", body, splitLimit, len(ref))
		}
	case ok:
		if refErr != nil || trailing {
			t.Fatalf("%q: scanner accepts; decoder error %v, trailing bytes %v", body, refErr, trailing)
		}
		if len(elems) != len(ref) {
			t.Fatalf("%q: scanner found %d elements, the decoder %d", body, len(elems), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(elems[i], ref[i]) {
				t.Fatalf("%q: element %d is %q, the decoder's is %q", body, i, elems[i], ref[i])
			}
			if cap(elems[i]) != len(elems[i]) {
				t.Fatalf("%q: element %d has capacity past its end", body, i)
			}
		}
	case refErr == nil && !trailing && ref != nil && bytes.Count(body, []byte("["))+bytes.Count(body, []byte("{")) <= maxWireDepth:
		// Too few brackets to nest past maxWireDepth: nothing excuses declining.
		t.Fatalf("%q: scanner declines an array the decoder reads as %q", body, ref)
	}

	raw, err := decodeBatch(body)
	switch {
	case refErr != nil:
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%q: decodeBatch error %v, the decoder's %v", body, err, refErr)
		}
	case trailing:
		if err == nil || !strings.Contains(err.Error(), "after top-level value") {
			t.Fatalf("%q: bytes after the array, decodeBatch error %v", body, err)
		}
	case err != nil || !reflect.DeepEqual(raw, ref):
		t.Fatalf("%q: decodeBatch = %q, %v; the decoder's %q", body, raw, err, ref)
	}
}

var splitSeeds = []string{
	`[]`, ` [ ] `, `[{"id":"a","title":"t"}]`, `[{"id":"a"},{"id":"b"}]`, "[\n\t{\"id\" : \"a\"} ,\r\n {\"id\":\"b\"}\n]\n",
	`[1,2,3,4]`, `[1,2,3,4,5]`, `[1,2,3,4,5,6,7,8,9]`, `[1,2,3,4,}`, `[1,2,3,4,5 garbage`,
	`[null,true,false,"s",-0.5e+10,1E-2,0,{},[],[[]],{"a":{"b":[1,{"c":null}]}}]`,
	`["esc \" \\ \/ \b \f \n \r \t \u00e9 \uD83D\uDE00"]`, `["bad \x escape"]`, `["\u12G4"]`, `["\u12"]`, "[\"ctl \x01\"]", "[\"\xff\xfe\"]",
	`[01]`, `[1.]`, `[.5]`, `[+1]`, `[-]`, `[1e]`, `[1e+]`, `[0x10]`, `[NaN]`, `[tru]`, `[truex]`, `[nul]`,
	`[1,]`, `[,1]`, `[1 2]`, `[1,,2]`, `[{"a"}]`, `[{"a":}]`, `[{a:1}]`, `[{"a":1,}]`, `[{"a":1 "b":2}]`, `[[1,]`,
	`[{"id":"a"}] }}}`, `[{"id":"a"}]x`, `[] []`, `[]0`, `[1]` + "\x00", `[1`, `[`, `[{"a":"unterminated`, ``, ` `, `null`, `{}`, `"s"`, `1`, `{"a":[1]}`,
	strings.Repeat("[", maxWireDepth+2) + strings.Repeat("]", maxWireDepth+2),
	strings.Repeat("[", maxWireDepth+1) + strings.Repeat("]", maxWireDepth+1),
	`[` + strings.Repeat(`{"a":`, maxWireDepth) + `1` + strings.Repeat(`}`, maxWireDepth) + `]`,
}

// TestSplitBatchMatchesDecoder runs the scanner's contract over the seed
// bodies and every prefix of each.
func TestSplitBatchMatchesDecoder(t *testing.T) {
	for _, s := range splitSeeds {
		for k := 0; k <= len(s); k++ {
			checkSplit(t, []byte(s[:k]))
		}
	}
	// The shapes the scanner exists for are accepted, not merely consistent.
	for _, c := range []struct {
		body        string
		limit, want int
	}{
		{`[]`, splitLimit, 0},
		{` [ {"id":"a"} , {"id":"b"} ] `, splitLimit, 2},
		{`[1,2,3,4]`, splitLimit, 4},
		{`[null,true,false,"s",-0.5e+10,1E-2,0,{},[],[[]],{"a":{"b":[1,{"c":null}]}}]`, 64, 11},
		{strings.Repeat("[", maxWireDepth+1) + strings.Repeat("]", maxWireDepth+1), splitLimit, 1},
	} {
		if elems, over, ok := splitBatch([]byte(c.body), c.limit); !ok || over || len(elems) != c.want {
			t.Errorf("%q: %d elements, over %v, ok %v; want %d accepted", c.body, len(elems), over, ok, c.want)
		}
	}
	if _, over, ok := splitBatch([]byte(`[1,2,3,4,5 garbage`), splitLimit); !ok || !over {
		t.Errorf("limit not reported where element %d starts: over %v, ok %v", splitLimit+1, over, ok)
	}
	if _, _, ok := splitBatch([]byte(strings.Repeat("[", maxWireDepth+2)+strings.Repeat("]", maxWireDepth+2)), splitLimit); ok {
		t.Errorf("an element nested past maxWireDepth was not left to the decoder")
	}
}

func FuzzSplitBatch(f *testing.F) {
	for _, s := range splitSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSplit(t, body)
		if len(body) <= 128 {
			for k := range body {
				checkSplit(t, body[:k])
			}
		}
	})
}

// TestSplitBatchElementsAreSubSlices: the elements alias the body — no copy
// is made — in order and without overlap.
func TestSplitBatchElementsAreSubSlices(t *testing.T) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(" ,\n")
		}
		fmt.Fprintf(&sb, `{"id":"doc-%d","n":[%d,{"k":"v"}]}`, i, i)
	}
	sb.WriteByte(']')
	body := []byte(sb.String())
	elems, over, ok := splitBatch(body, 64)
	if !ok || over || len(elems) != 40 {
		t.Fatalf("%d elements, over %v, ok %v", len(elems), over, ok)
	}
	at := 0
	for i, e := range elems {
		off := bytes.Index(body[at:], e)
		if off < 0 || &body[at+off] != &e[0] {
			t.Fatalf("element %d is not a sub-slice of the body at or after byte %d", i, at)
		}
		at += off + len(e)
	}
}
