package corpus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// seedDocuments returns generated documents of both content tasks plus hand
// cases for everything the encoder escapes or refuses.
func seedDocuments(tb testing.TB) []*Document {
	tb.Helper()
	topic, err := GenerateTopic(TopicSpec{NumDocs: 150, PositiveRate: 0.1, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	product, err := GenerateProduct(ProductSpec{NumDocs: 150, PositiveRate: 0.1, Seed: 12})
	if err != nil {
		tb.Fatal(err)
	}
	docs := append(topic, product...)
	for _, s := range seedStrings {
		docs = append(docs, &Document{ID: s, Title: s, Body: s + s, URL: s, Language: s})
	}
	for _, f := range seedFloats {
		docs = append(docs, &Document{ID: "f", Gold: true, Crawler: CrawlerStats{EngagementScore: f, DomainAuthority: -f}})
	}
	return append(docs, &Document{}, nil)
}

// seedStrings are everything the JSON encoder escapes or rewrites.
var seedStrings = []string{
	"", "plain", `quote " backslash \ slash /`, "ctl \x00\x01\x1f\b\f\n\r\t \x7f",
	"html <script>&amp;</script>", "sep \u2028 and \u2029", "日本語 é 😀",
	"bad \xff\xc0\xaf utf8", "half surrogate \xed\xa0\x80", "trunc \xe2\x80",
}

var seedFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999e-7, 1e20, 1e21, 123456789.125,
	1.5e-9, 2.5e-10, 1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// seedEvents returns generated events plus every awkward ID, vectors of every
// awkward float, and nil, empty, short and long vectors.
func seedEvents(tb testing.TB) []*Event {
	tb.Helper()
	events, err := GenerateEvents(DefaultEventsSpec(200, 13))
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range seedFloats {
		e := &Event{ID: "f", Servable: make([]float64, EventServableDim), AggStats: make([]float64, EventAggDim), GraphScores: make([]float64, EventGraphDim)}
		e.Servable[3], e.AggStats[0], e.GraphScores[EventGraphDim-1] = f, f, -f
		events = append(events, e)
	}
	full := events[0]
	for _, s := range seedStrings {
		events = append(events, &Event{ID: s, Servable: full.Servable, AggStats: full.AggStats, GraphScores: full.GraphScores, Gold: true})
	}
	return append(events,
		&Event{}, nil,
		&Event{ID: "<nil vectors>", Gold: true},
		&Event{ID: "empty", Servable: []float64{}, AggStats: []float64{}, GraphScores: []float64{}},
		&Event{ID: "short agg", Servable: full.Servable, AggStats: full.AggStats[:3], GraphScores: full.GraphScores},
		&Event{ID: "long graph", Servable: full.Servable, AggStats: full.AggStats, GraphScores: append(full.GraphScores[:EventGraphDim:EventGraphDim], 1)},
	)
}

// TestMarshalMatchesEncodingJSON pins the wire encoder, MarshalDocuments, to
// json.Marshal byte for byte, and to its refusals.
func TestMarshalMatchesEncodingJSON(t *testing.T) {
	check := func(name string, got []byte, gerr error, want []byte, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: Marshal error %v, json.Marshal error %v", name, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Marshal\n %s\njson.Marshal\n %s", name, got, want)
		}
	}
	for i, d := range seedDocuments(t) {
		var got []byte
		bodies, gerr := MarshalDocuments([]*Document{d})
		if gerr == nil {
			got = bodies[0]
		}
		want, werr := json.Marshal(d)
		check(fmt.Sprintf("document %d", i), got, gerr, want, werr)
	}
}

// TestDocumentMarshalRoundTrip: a document with finite crawler stats encodes
// to a binary record that decodes to it exactly — floats bit for bit and every
// string as it was, including the seed strings of invalid UTF-8, which
// encoding/json rewrites to U+FFFD — and Marshal refuses nil and NaN or ±Inf,
// saying why.
func TestDocumentMarshalRoundTrip(t *testing.T) {
	long := strings.Repeat("body text é ", 64<<10/13)
	docs := append(seedDocuments(t),
		&Document{ID: "long", Title: "t", Body: long, URL: long[:200], Language: "en"},
		&Document{ID: "非 ASCII", Title: "日本語", Body: "é 😀", URL: "http://例え.jp/", Language: "ja", Gold: true},
		&Document{Title: " ", Body: " "}, &Document{ID: "\xff", Body: "\xc0"})
	for i, d := range docs {
		rec, err := d.Marshal()
		var want string
		if d == nil {
			want = "corpus: encode document: nil document"
		} else if _, jerr := json.Marshal(d); jerr != nil {
			want = "unsupported value: " // NaN or ±Inf, which JSON refuses too
		}
		if want != "" {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("document %d: Marshal error %v, want one containing %q", i, err, want)
			}
			continue
		}
		if err != nil || rec[0] != docMagic {
			t.Fatalf("document %d: record %.20x, %v", i, rec, err)
		}
		decoded := *d
		decoded.text = d.Title + " " + d.Body // a decoded document carries its text
		got, err := UnmarshalDocument(rec)
		if err != nil || !reflect.DeepEqual(got, &decoded) {
			t.Fatalf("document %d: decoded as %+v, %v; want %+v", i, got, err, d)
		}
		if again, _ := got.Marshal(); !bytes.Equal(again, rec) {
			t.Fatalf("document %d: re-encoded as %x, want %x", i, again, rec)
		}
	}
}

// TestUnmarshalDocumentRejectsMalformedRecords names what is wrong with a
// binary record Marshal could not have written.
func TestUnmarshalDocumentRejectsMalformedRecords(t *testing.T) {
	rec, _ := (&Document{ID: "d1", Title: "T", Body: "B b", URL: "u", Language: "en"}).Marshal()
	const lens = docHead // where the lengths start: title 1, body 3, id 2, url 1, language 2
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(rec)) }
	for _, c := range []struct {
		data []byte
		want string
	}{
		{rec[:docHead-1], fmt.Sprintf("record of %d bytes is truncated", docHead-1)},
		{edit(func(b []byte) []byte { b[1] = 2; return b }), "gold byte is 2, want 0 or 1"},
		{edit(func(b []byte) []byte { return putFloat(b, 2, math.NaN()) }), "unsupported value: NaN"},
		{edit(func(b []byte) []byte { return putFloat(b, 10, math.Inf(1)) }), "unsupported value: +Inf"},
		{rec[:docHead], "title length is not a minimal uvarint"},
		{edit(func(b []byte) []byte { b[lens+2], b[lens+3] = 0x82, 0; return b }), "id length is not a minimal uvarint"},
		{edit(func(b []byte) []byte {
			b[lens] |= 0x80
			return append(b[:lens+1:lens+1], append([]byte{0}, b[lens+1:]...)...)
		}), "title length is not a minimal uvarint"},
		{edit(func(b []byte) []byte { b[lens+1] = 50; return b }), "body of 50 bytes runs past the end of the record"},
		{edit(func(b []byte) []byte { b[lens+4]--; return b }), fmt.Sprintf("record is %d bytes, want %d", len(rec), len(rec)-1)},
		{rec[:len(rec)-1], fmt.Sprintf("record is %d bytes, want %d", len(rec)-1, len(rec))},
		{append(bytes.Clone(rec), 'x'), fmt.Sprintf("record is %d bytes, want %d", len(rec)+1, len(rec))},
		{edit(func(b []byte) []byte { b[lens+6] = '_'; return b }), "no space between title and body"},
	} {
		if _, err := UnmarshalDocument(c.data); err == nil || err.Error() != "corpus: decode document: "+c.want {
			t.Errorf("%x: error %v, want %q", c.data, err, c.want)
		}
	}
}

// TestEventMarshalRoundTrip: an event the labeling functions can read encodes
// to a record that decodes to it exactly — floats bit for bit and the ID as
// it was, including the seed IDs of invalid UTF-8, which encoding/json
// rewrote to U+FFFD — and Marshal refuses every other event, saying why.
func TestEventMarshalRoundTrip(t *testing.T) {
	for i, e := range seedEvents(t) {
		rec, err := e.Marshal()
		var want string
		if e == nil {
			want = "corpus: encode event: nil event"
		} else if derr := checkEventDims(e); derr != nil {
			want = derr.Error()
		} else if _, jerr := json.Marshal(e); jerr != nil {
			want = "unsupported value: " // NaN or ±Inf, which JSON refuses too
		}
		if want != "" {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("event %d: Marshal error %v, want one containing %q", i, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		got, err := UnmarshalEvent(rec)
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("event %d: decoded as %+v, %v; want %+v", i, got, err, e)
		}
		if again, _ := got.Marshal(); !bytes.Equal(again, rec) {
			t.Fatalf("event %d: re-encoded as %x, want %x", i, again, rec)
		}
	}
}

// numberCases are spliced in where a canonical record has a number.
var numberCases = []string{
	"0", "-0", "1", "-1.5", "1e-7", "1E-7", "1e+5", "1e21", "1e999", "-1e999", "1e-999",
	"0.1e1", "123456789012345678901234567890", "0.000000000000000000000000000000000001",
	"01", "-01", "1.", ".5", "-.5", "+1", "-", "1e", "1e+", "0x10", "1_000", "NaN", "Infinity", "-Infinity",
	"null", "true", `"1"`, "[1]", "{}", " 1", "1 ",
}

// stringCases are spliced in where a canonical record has a string.
var stringCases = []string{
	`""`, `"plain"`, `"日本語 é"`, `"é"`, `"😀"`, `"\ud800"`, `"\udc00x"`, `"a\nb"`, `"a\"b"`, `"a\\b"`, `"a\/b"`,
	`"\x"`, `"\u12"`, "\"raw\nnewline\"", "\"raw\ttab\"", "\"nul\x00\"", "\"del\x7f\"", "\"bad\xff\"", "\"bad\xed\xa0\x80\"",
	"\"trunc\xe2\x80\"", `"<>&"`, "\"\u2028\"", `"unterminated`, `null`, `5`, `true`, `["a"]`,
}

// seedPayloads returns canonical records and every hand-made departure from
// the canonical shape: document payloads first, then event payloads.
func seedPayloads(tb testing.TB) (documents, events [][]byte) {
	tb.Helper()
	// Documents: the binary record of every seed document Marshal accepts,
	// every seventh prefix of one and edits of it, then the JSON bodies.
	var jsonDocuments [][]byte
	for _, d := range seedDocuments(tb) {
		if b, err := d.Marshal(); err == nil {
			documents = append(documents, b)
		}
		if b, err := MarshalDocuments([]*Document{d}); err == nil {
			jsonDocuments = append(jsonDocuments, b[0])
		}
	}
	rec := documents[0]
	for i := 0; i < len(rec); i += 7 {
		documents = append(documents, rec[:i])
	}
	for _, edit := range []func(b []byte) []byte{
		func(b []byte) []byte { b[1] = 2; return b },                   // gold byte
		func(b []byte) []byte { return putFloat(b, 2, math.NaN()) },    // NaN
		func(b []byte) []byte { return putFloat(b, 10, math.Inf(-1)) }, // -Inf
		func(b []byte) []byte { b[docHead]++; return b },               // title length
		func(b []byte) []byte { b[docHead+1]--; return b },             // body length
		func(b []byte) []byte { b[docHead] |= 0x80; return b },         // runs on
		func(b []byte) []byte {
			b[docHead] |= 0x80
			return append(b[:docHead+1:docHead+1], append([]byte{0}, b[docHead+1:]...)...)
		}, // non-minimal
		func(b []byte) []byte { return append(b, 0) },
	} {
		documents = append(documents, edit(bytes.Clone(rec)))
	}
	documents = append(documents, jsonDocuments...)
	// Events: the binary record of every seed event Marshal accepts, the JSON
	// of every one json.Marshal accepts, and departures from both.
	var jsonEvents [][]byte
	for _, e := range seedEvents(tb) {
		if b, err := e.Marshal(); err == nil {
			events = append(events, b)
		}
		if b, err := json.Marshal(e); err == nil {
			jsonEvents = append(jsonEvents, b)
		}
	}
	rec = events[0]
	for i := range rec {
		events = append(events, rec[:i])
	}
	for _, edit := range []func(b []byte) []byte{
		func(b []byte) []byte { b[1] = 2; return b },                                                   // gold byte
		func(b []byte) []byte { b[2]++; return b },                                                     // ID length
		func(b []byte) []byte { b[2]--; return b },                                                     // ID length
		func(b []byte) []byte { b[2] |= 0x80; return b },                                               // ID length runs on
		func(b []byte) []byte { b[2] |= 0x80; return append(b[:3:3], append([]byte{0}, b[3:]...)...) }, // non-minimal
		func(b []byte) []byte { return putLastFloat(b, math.NaN()) },                                   // NaN
		func(b []byte) []byte { return putLastFloat(b, math.Inf(-1)) },                                 // -Inf
		func(b []byte) []byte { return append(b, 0) },
		func(b []byte) []byte { return append(b, b[len(b)-8:]...) },
	} {
		events = append(events, edit(bytes.Clone(rec)))
	}
	events = append(events, jsonEvents...)
	const doc = `{"id":"d1","title":"T","body":"B b","url":"http://u/x","language":"en","gold":true,"crawler":{"engagement":0.25,"authority":0.5}}`
	ev := string(jsonEvents[0])
	open := strings.Index(ev, "[") + 1
	firstNumber := ev[open : open+strings.Index(ev[open:], ",")]
	for _, n := range numberCases {
		documents = append(documents, []byte(strings.Replace(doc, "0.25", n, 1)), []byte(strings.Replace(doc, "0.5}", n+"}", 1)))
		events = append(events, []byte(strings.Replace(ev, firstNumber, n, 1)))
	}
	for _, s := range stringCases {
		documents = append(documents, []byte(strings.Replace(doc, `"d1"`, s, 1)), []byte(strings.Replace(doc, `"B b"`, s, 1)))
		events = append(events, []byte(strings.Replace(ev, `"event-00000000"`, s, 1)))
	}
	for _, rewrite := range [][2]string{
		{`"id"`, `"ID"`}, {`"id"`, `"Id"`}, {`"gold"`, `"GOLD"`}, {`"id":`, `"id":"dup","id":`}, {`"id":`, `"Id":"dup","id":`},
		{`"gold":true`, `"gold":true,"gold":false`}, {`"gold":true`, `"gold":false`}, {`"gold":true`, `"gold":null`},
		{`"gold":true`, `"gold":1`}, {`"gold":true`, `"gold":"true"`}, {`"gold":true`, `"gold":tru`}, {`"gold":true`, `"gold":True`},
		{`"gold":true`, `"gold":true,"extra":1`}, {`"gold":true,`, ``}, {`"id":"d1",`, ``}, {`"id":"event-00000000",`, ``},
		{`"crawler":{`, `"crawler":{"engagement":1,`}, {`"crawler":{`, `"crawler":{"other":1,`}, {`"crawler":{`, `"crawler":{"Engagement":1,`},
		{`"engagement":0.25,`, ``}, {`{"engagement":0.25,"authority":0.5}`, `{}`}, {`{"engagement":0.25,"authority":0.5}`, `null`},
		{`{"engagement":0.25,"authority":0.5}`, `[]`}, {`,"crawler"`, `,"crawler":{"engagement":2,"authority":3},"crawler"`},
		{`"servable":[`, `"servable":[1,`}, {`"agg_stats":[`, `"agg_stats":[1,`}, {`"graph_scores":[`, `"graph_scores":[],"x":[`},
		{`"servable":[`, `"servable":[],"agg_stats":[`}, {`"servable":[`, `"servable":null,"x":[`}, {`"agg_stats":[`, `"agg_stats":[],"agg_stats":[`},
		{`,"agg_stats":`, `,"Agg_Stats":`}, {`],"agg_stats"`, `,],"agg_stats"`}, {`],"agg_stats"`, `,"agg_stats"`},
		{`:`, `: `}, {`,`, ` ,`}, {`{`, `{ `}, {`{`, ` {`}, {`{`, `[`}, {`{`, `{,`}, {`}`, `,}`},
	} {
		documents = append(documents, []byte(strings.Replace(doc, rewrite[0], rewrite[1], 1)))
		events = append(events, []byte(strings.Replace(ev, rewrite[0], rewrite[1], 1)))
	}
	for _, tail := range []string{" ", "\n", "x", "}", "{}", doc, "\x00"} {
		documents = append(documents, []byte(doc+tail))
		events = append(events, []byte(ev+tail))
	}
	for _, whole := range []string{"", "{}", "{", "}", "null", "[]", `""`, "0", `{"id":"x"}`, `{"id"}`, `{"id":}`, `{:"x"}`, `{"":""}`} {
		documents = append(documents, []byte(whole))
		events = append(events, []byte(whole))
	}
	for i := range doc {
		documents = append(documents, []byte(doc[:i]))
	}
	for i := 0; i < len(ev); i += 7 {
		events = append(events, []byte(ev[:i]))
	}
	return documents, events
}

// checkDocument is FuzzUnmarshalDocument's property. A payload starting with
// docMagic decodes only if Marshal encodes the result back to the payload
// itself, and otherwise errors with the decoder's prefix. For any other
// payload: if the JSON fast path accepts it its result is the reference
// decoder's; whatever the fast path does, the exported decoder answers as the
// reference does; and a document that decoded goes back to the bytes
// json.Marshal gives it through the wire encoder. Either way a decoded
// document carries its text, Title + " " + Body, and its binary record decodes
// to it again. It reports whether the payload took a fast path: a binary
// record, or the scanner.
func checkDocument(t *testing.T, data []byte) (fastPath bool) {
	t.Helper()
	if len(data) > 0 && data[0] == docMagic {
		got, err := UnmarshalDocument(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "corpus: decode document: ") {
				t.Fatalf("%q: error %q lacks the decoder's prefix", data, err)
			}
			return false
		}
		if rec, merr := got.Marshal(); merr != nil || !bytes.Equal(rec, data) {
			t.Fatalf("%x: decoded as %+v, which re-encodes as %x, %v", data, got, rec, merr)
		}
		checkDecoded(t, data, got)
		return true
	}
	want, werr := unmarshalDocumentJSON(data)
	fast, accepted := scanDocument(data)
	if accepted && (werr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("fast path accepted %q\n as %+v\n reference: %+v, %v", data, fast, want, werr)
	}
	for _, d := range []*Document{fast, want} {
		if d != nil {
			checkDecoded(t, data, d)
		}
	}
	got, gerr := UnmarshalDocument(data)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%q: decoded with error %v, reference %v", data, gerr, werr)
	}
	if gerr != nil {
		return accepted
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded as %+v, reference %+v", data, got, want)
	}
	enc, eerr := MarshalDocuments([]*Document{got})
	ref, rerr := json.Marshal(got)
	if eerr != nil || rerr != nil || !bytes.Equal(enc[0], ref) {
		t.Fatalf("%q: re-encoded as %q (%v), json.Marshal %q (%v)", data, enc, eerr, ref, rerr)
	}
	return accepted
}

// checkDecoded: a decoded document carries its text, and its binary record
// decodes to it again.
func checkDecoded(t *testing.T, data []byte, d *Document) {
	t.Helper()
	if d.text != d.Title+" "+d.Body || d.Text() != d.text {
		t.Fatalf("%q: decoded with text %q and Text() %q, want %q", data, d.text, d.Text(), d.Title+" "+d.Body)
	}
	rec, err := d.Marshal()
	if err != nil {
		t.Fatalf("%q: decoded as %+v, which Marshal refuses: %v", data, d, err)
	}
	if back, err := decodeDocument(rec); err != nil || !reflect.DeepEqual(back, d) {
		t.Fatalf("%q: record %x decoded as %+v, %v; want %+v", data, rec, back, err, d)
	}
}

// checkEvent is FuzzUnmarshalEvent's property. Whatever the bytes,
// UnmarshalEvent errors or returns an event the labeling functions can read,
// which Marshal encodes to a record that decodes to it again. A payload
// starting with eventMagic decodes only if that record is the payload itself;
// any other payload decodes exactly as the encoding/json reference decodes
// it. It reports whether the payload decoded as a binary record.
func checkEvent(t *testing.T, data []byte) (asBinary bool) {
	t.Helper()
	got, err := UnmarshalEvent(data)
	asBinary = len(data) > 0 && data[0] == eventMagic
	if !asBinary {
		want, werr := unmarshalEventJSON(data)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded as %+v, %v; reference %+v, %v", data, got, err, want, werr)
		}
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "corpus: decode event: ") {
			t.Fatalf("%q: error %q lacks the decoder's prefix", data, err)
		}
		return false
	}
	if derr := checkEventDims(got); derr != nil {
		t.Fatalf("%q: decoded an event the labeling functions cannot read: %v", data, derr)
	}
	rec, merr := got.Marshal()
	if merr != nil || (asBinary && !bytes.Equal(rec, data)) {
		t.Fatalf("%q: re-encoded as %x, %v", data, rec, merr)
	}
	if back, berr := UnmarshalEvent(rec); berr != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("%q: record %x decoded as %+v, %v; want %+v", data, rec, back, berr, got)
	}
	return asBinary
}

// TestUnmarshalMatchesEncodingJSON runs the fuzz properties over the seed set,
// and checks that generated records take the fast paths: a document's binary
// record and its JSON body through the scanner, and the binary event record.
func TestUnmarshalMatchesEncodingJSON(t *testing.T) {
	documents, events := seedPayloads(t)
	for _, data := range documents {
		checkDocument(t, data)
	}
	for _, data := range events {
		checkEvent(t, data)
	}
	topic, _ := GenerateTopic(TopicSpec{NumDocs: 50, PositiveRate: 0.1, Seed: 3})
	product, _ := GenerateProduct(ProductSpec{NumDocs: 50, PositiveRate: 0.1, Seed: 3})
	docs := append(topic, product...)
	bodies, _ := MarshalDocuments(docs)
	for i, d := range docs {
		rec, _ := d.Marshal()
		if !checkDocument(t, rec) || !checkDocument(t, bodies[i]) {
			t.Fatalf("fast path declined a generated document: %x, %s", rec, bodies[i])
		}
	}
	generated, _ := GenerateEvents(DefaultEventsSpec(50, 3))
	for _, e := range generated {
		rec, _ := e.Marshal()
		if !checkEvent(t, rec) {
			t.Fatalf("a generated event did not decode as a binary record: %x", rec)
		}
	}
}

func FuzzUnmarshalDocument(f *testing.F) {
	documents, events := seedPayloads(f)
	for _, data := range append(documents, events[0]) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDocument(t, data) })
}

func FuzzUnmarshalEvent(f *testing.F) {
	documents, events := seedPayloads(f)
	for _, data := range append(events, documents[0]) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkEvent(t, data) })
}

// TestUnmarshalEventRejectsWrongDimensions: the labeling functions index the
// three vectors without looking, so a record that would make them index out
// of range must not decode, canonical JSON or not. (A binary record has no
// room for a vector of another length: see the record-length cases below.)
func TestUnmarshalEventRejectsWrongDimensions(t *testing.T) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	good, _ := json.Marshal(events[0])
	vector := func(field string) string {
		at := strings.Index(string(good), `"`+field+`":`) + len(field) + 3
		return string(good[at : at+strings.Index(string(good[at:]), "]")+1])
	}
	for _, c := range []struct{ field, value, want string }{
		{"servable", `[1,2,3]`, "servable has 3 values, want 16"},
		{"agg_stats", vector("agg_stats")[:len(vector("agg_stats"))-1] + `,9]`, "agg_stats has 9 values, want 8"},
		{"graph_scores", `[]`, "graph_scores has 0 values, want 4"},
		{"graph_scores", `null`, "graph_scores has 0 values, want 4"},
	} {
		canonical := strings.Replace(string(good), vector(c.field), c.value, 1)
		for _, data := range []string{canonical, strings.Replace(canonical, ":", ": ", 1)} {
			if _, err := UnmarshalEvent([]byte(data)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s = %s: error %v, want one naming %q", c.field, c.value, err, c.want)
			}
		}
	}
	for _, data := range []string{`{"id":"x"}`, strings.Replace(string(good), `"agg_stats":`+vector("agg_stats")+`,`, "", 1)} {
		if _, err := UnmarshalEvent([]byte(data)); err == nil {
			t.Errorf("%s decoded as an event", data)
		}
	}
}

// putLastFloat overwrites the last float of a binary event record.
func putLastFloat(rec []byte, f float64) []byte {
	return putFloat(rec, len(rec)-8, f)
}

// putFloat overwrites the float at offset at of a binary record.
func putFloat(rec []byte, at int, f float64) []byte {
	binary.LittleEndian.PutUint64(rec[at:], math.Float64bits(f))
	return rec
}

// TestUnmarshalEventRejectsMalformedRecords names what is wrong with a binary
// record Marshal could not have written.
func TestUnmarshalEventRejectsMalformedRecords(t *testing.T) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	rec, _ := events[0].Marshal() // magic, gold, ID length 14, "event-00000000", floats
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(rec)) }
	for _, c := range []struct {
		data []byte
		want string
	}{
		{rec[:2], "record of 2 bytes is truncated"},
		{edit(func(b []byte) []byte { b[1] = 2; return b }), "gold byte is 2, want 0 or 1"},
		{edit(func(b []byte) []byte { b[2] = 0xff; return b[:3] }), "id length is not a minimal uvarint"},
		{edit(func(b []byte) []byte { b[2] |= 0x80; return append(b[:3:3], append([]byte{0}, b[3:]...)...) }), "id length is not a minimal uvarint"},
		{rec[:10], "id of 14 bytes runs past the end of the record"},
		{edit(func(b []byte) []byte { b[2]--; return b }), fmt.Sprintf("record is %d bytes, want %d", len(rec), len(rec)-1)},
		{rec[:len(rec)-8], fmt.Sprintf("record is %d bytes, want %d", len(rec)-8, len(rec))},
		{append(bytes.Clone(rec), rec[len(rec)-8:]...), fmt.Sprintf("record is %d bytes, want %d", len(rec)+8, len(rec))},
		{edit(func(b []byte) []byte { return putLastFloat(b, math.NaN()) }), "unsupported value: NaN"},
		{edit(func(b []byte) []byte { return putLastFloat(b, math.Inf(-1)) }), "unsupported value: -Inf"},
	} {
		if _, err := UnmarshalEvent(c.data); err == nil || err.Error() != "corpus: decode event: "+c.want {
			t.Errorf("%x: error %v, want %q", c.data, err, c.want)
		}
	}
}

// TestCodecAllocationCeilings pins the allocation side of the codec: an
// encode is its result (and a batch's slice), a decoded event is the record and its ID, a decoded
// document — binary record or JSON body — is the struct and the one string its
// five are cut from, and the text of a decoded document is free. (Through
// encoding/json a decoded event is 19 allocations, a document 13.)
func TestCodecAllocationCeilings(t *testing.T) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	docs, _ := GenerateTopic(TopicSpec{NumDocs: 1, PositiveRate: 0.5, Seed: 1})
	ev, doc := events[0], docs[0]
	evRec, _ := ev.Marshal()
	docRec, _ := doc.Marshal()
	docBody, _ := MarshalDocuments(docs)
	decoded, _ := UnmarshalDocument(docRec)
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"Event.Marshal", 1, func() { ev.Marshal() }},
		{"UnmarshalEvent", 2, func() { UnmarshalEvent(evRec) }},
		{"Document.Marshal", 1, func() { doc.Marshal() }},
		{"MarshalDocuments of one", 2, func() { MarshalDocuments(docs) }},
		{"UnmarshalDocument/binary", 2, func() { UnmarshalDocument(docRec) }},
		{"UnmarshalDocument/json", 2, func() { UnmarshalDocument(docBody[0]) }},
		{"decoded Document.Text", 0, func() { benchText = decoded.Text() }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got > c.ceiling {
			t.Errorf("%s: %.0f allocs per run, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestDecodedTextFollowsFields: the text a decoded document carries is what
// Text returns only while Title and Body are still the ones decoded; after
// either is reassigned, Text joins the new pair — on both decoding paths.
func TestDecodedTextFollowsFields(t *testing.T) {
	const rec = `{"id":"d1","title":"T","body":"B b","url":"u","language":"en","gold":true,"crawler":{"engagement":0.25,"authority":0.5}}`
	record, _ := (&Document{ID: "d1", Title: "T", Body: "B b", URL: "u", Language: "en", Gold: true}).Marshal()
	for _, data := range []string{rec, strings.Replace(rec, `"id":`, `"id" :`, 1), string(record)} {
		for _, c := range []struct {
			edit func(d *Document)
			want string
		}{
			{func(d *Document) {}, "T B b"},
			{func(d *Document) { d.Title = "New" }, "New B b"},
			{func(d *Document) { d.Body = "other" }, "T other"},
			{func(d *Document) { d.Title, d.Body = "T B", "b" }, "T B b"},
			{func(d *Document) { d.Title, d.Body = d.Body, d.Title }, "B b T"},
			{func(d *Document) { d.Title = d.Title[:0] }, " B b"},
			{func(d *Document) { d.Body = d.Body[:1] }, "T B"},
		} {
			d, err := UnmarshalDocument([]byte(data))
			if err != nil {
				t.Fatal(err)
			}
			c.edit(d)
			if got := d.Text(); got != c.want {
				t.Errorf("%s: Text() = %q, want %q", data, got, c.want)
			}
		}
	}
}

var (
	benchText  string
	benchBytes []byte
	benchEvent *Event
	benchDoc   *Document
)

func BenchmarkMarshalEvent(b *testing.B) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchBytes, _ = events[0].Marshal()
	}
	b.SetBytes(int64(len(benchBytes)))
}

func BenchmarkUnmarshalEvent(b *testing.B) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	rec, _ := events[0].Marshal()
	b.ReportAllocs()
	b.SetBytes(int64(len(rec)))
	for i := 0; i < b.N; i++ {
		benchEvent, _ = UnmarshalEvent(rec)
	}
}

// documentForms are a generated document's binary record and JSON body.
func documentForms(b *testing.B) (*Document, map[string][]byte) {
	docs, _ := GenerateTopic(TopicSpec{NumDocs: 1, PositiveRate: 0.5, Seed: 1})
	rec, _ := docs[0].Marshal()
	bodies, _ := MarshalDocuments(docs)
	return docs[0], map[string][]byte{"binary": rec, "json": bodies[0]}
}

func BenchmarkMarshalDocument(b *testing.B) {
	doc, _ := documentForms(b)
	for name, enc := range map[string]func(d *Document) ([]byte, error){
		"binary": (*Document).Marshal,
		"json": func(d *Document) ([]byte, error) {
			bodies, err := MarshalDocuments([]*Document{d})
			return bodies[0], err
		},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchBytes, _ = enc(doc)
			}
			b.SetBytes(int64(len(benchBytes)))
		})
	}
}

func BenchmarkUnmarshalDocument(b *testing.B) {
	_, forms := documentForms(b)
	for name, rec := range forms {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			for i := 0; i < b.N; i++ {
				benchDoc, _ = UnmarshalDocument(rec)
			}
		})
	}
}
