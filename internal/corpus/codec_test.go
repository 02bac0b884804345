package corpus

import (
	"bytes"
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
	for _, s := range []string{
		"", "plain", `quote " backslash \ slash /`, "ctl \x00\x01\x1f\b\f\n\r\t \x7f",
		"html <script>&amp;</script>", "sep \u2028 and \u2029", "日本語 é 😀",
		"bad \xff\xc0\xaf utf8", "half surrogate \xed\xa0\x80", "trunc \xe2\x80",
	} {
		docs = append(docs, &Document{ID: s, Title: s, Body: s + s, URL: s, Language: s})
	}
	for _, f := range seedFloats {
		docs = append(docs, &Document{ID: "f", Gold: true, Crawler: CrawlerStats{EngagementScore: f, DomainAuthority: -f}})
	}
	return append(docs, &Document{}, nil)
}

var seedFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999e-7, 1e20, 1e21, 123456789.125,
	1.5e-9, 2.5e-10, 1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// seedEvents returns generated events plus vectors of every awkward float,
// and nil, empty, short and long vectors.
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
	return append(events,
		&Event{}, nil,
		&Event{ID: "<nil vectors>", Gold: true},
		&Event{ID: "empty", Servable: []float64{}, AggStats: []float64{}, GraphScores: []float64{}},
		&Event{ID: "short agg", Servable: full.Servable, AggStats: full.AggStats[:3], GraphScores: full.GraphScores},
		&Event{ID: "long graph", Servable: full.Servable, AggStats: full.AggStats, GraphScores: append(full.GraphScores[:EventGraphDim:EventGraphDim], 1)},
	)
}

// TestMarshalMatchesEncodingJSON pins the encoder to json.Marshal byte for
// byte, and to its refusals.
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
		got, gerr := d.Marshal()
		want, werr := json.Marshal(d)
		check(fmt.Sprintf("document %d", i), got, gerr, want, werr)
	}
	for i, e := range seedEvents(t) {
		got, gerr := e.Marshal()
		want, werr := json.Marshal(e)
		check(fmt.Sprintf("event %d", i), got, gerr, want, werr)
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
	for _, d := range seedDocuments(tb) {
		if b, err := d.Marshal(); err == nil {
			documents = append(documents, b)
		}
	}
	for _, e := range seedEvents(tb) {
		if b, err := e.Marshal(); err == nil {
			events = append(events, b)
		}
	}
	const doc = `{"id":"d1","title":"T","body":"B b","url":"http://u/x","language":"en","gold":true,"crawler":{"engagement":0.25,"authority":0.5}}`
	ev := string(events[0])
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

// checkCodec is the property both fuzz targets assert: if the fast path
// accepts a payload its result is the reference decoder's; whatever the fast
// path does, the exported decoder answers as the reference does; a decoded
// document carries its text, Title + " " + Body; and a value that decoded
// encodes to the bytes json.Marshal gives it.
func checkCodec[T any](t *testing.T, data []byte, scan func([]byte) (*T, bool), reference, exported func([]byte) (*T, error), encode func(*T) ([]byte, error)) (accepted bool) {
	t.Helper()
	want, werr := reference(data)
	fast, accepted := scan(data)
	if accepted && (werr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("fast path accepted %q\n as %+v\n reference: %+v, %v", data, fast, want, werr)
	}
	for _, v := range []*T{fast, want} {
		if d, ok := any(v).(*Document); ok && d != nil && (d.text != d.Title+" "+d.Body || d.Text() != d.text) {
			t.Fatalf("%q: decoded with text %q and Text() %q, want %q", data, d.text, d.Text(), d.Title+" "+d.Body)
		}
	}
	got, gerr := exported(data)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%q: decoded with error %v, reference %v", data, gerr, werr)
	}
	if gerr != nil {
		return accepted
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded as %+v, reference %+v", data, got, want)
	}
	enc, eerr := encode(got)
	ref, rerr := json.Marshal(got)
	if eerr != nil || rerr != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("%q: re-encoded as %q (%v), json.Marshal %q (%v)", data, enc, eerr, ref, rerr)
	}
	return accepted
}

func checkDocument(t *testing.T, data []byte) bool {
	return checkCodec(t, data, scanDocument, unmarshalDocumentJSON, UnmarshalDocument, (*Document).Marshal)
}

func checkEvent(t *testing.T, data []byte) bool {
	return checkCodec(t, data, scanEvent, unmarshalEventJSON, UnmarshalEvent, (*Event).Marshal)
}

// TestUnmarshalMatchesEncodingJSON runs the fuzz property over the seed set,
// and checks the fast path is the path generated records take.
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
	for _, d := range append(topic, product...) {
		rec, _ := d.Marshal()
		if !checkDocument(t, rec) {
			t.Fatalf("fast path declined a generated document: %s", rec)
		}
	}
	generated, _ := GenerateEvents(DefaultEventsSpec(50, 3))
	for _, e := range generated {
		rec, _ := e.Marshal()
		if !checkEvent(t, rec) {
			t.Fatalf("fast path declined a generated event: %s", rec)
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
// of range must not decode — in canonical form (the fast path has to decline
// it) or not (the reference path has to check too).
func TestUnmarshalEventRejectsWrongDimensions(t *testing.T) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	good, _ := events[0].Marshal()
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

// TestCodecAllocationCeilings pins the allocation side of the codec: an
// encode is its result, a decoded event is the record and its ID, a decoded
// document is the struct and the one string its five are cut from, and the
// text of a decoded document is free. (Through encoding/json a decoded event
// is 19 allocations, a document 13.)
func TestCodecAllocationCeilings(t *testing.T) {
	events, _ := GenerateEvents(DefaultEventsSpec(1, 1))
	docs, _ := GenerateTopic(TopicSpec{NumDocs: 1, PositiveRate: 0.5, Seed: 1})
	ev, doc := events[0], docs[0]
	evRec, _ := ev.Marshal()
	docRec, _ := doc.Marshal()
	decoded, _ := UnmarshalDocument(docRec)
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"Event.Marshal", 1, func() { ev.Marshal() }},
		{"UnmarshalEvent", 2, func() { UnmarshalEvent(evRec) }},
		{"Document.Marshal", 1, func() { doc.Marshal() }},
		{"UnmarshalDocument", 2, func() { UnmarshalDocument(docRec) }},
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
	for _, data := range []string{rec, strings.Replace(rec, `"id":`, `"id" :`, 1)} {
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

func BenchmarkUnmarshalDocument(b *testing.B) {
	docs, _ := GenerateTopic(TopicSpec{NumDocs: 1, PositiveRate: 0.5, Seed: 1})
	rec, _ := docs[0].Marshal()
	b.ReportAllocs()
	b.SetBytes(int64(len(rec)))
	for i := 0; i < b.N; i++ {
		benchDoc, _ = UnmarshalDocument(rec)
	}
}
