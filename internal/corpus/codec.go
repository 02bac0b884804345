package corpus

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/jsonenc"
)

// The record codec: the encoder and the scanner Document and Event need,
// without reflection, held to encoding/json by the fuzz targets in
// codec_test.go. The encoder writes exactly the bytes json.Marshal writes; a
// value holding NaN or ±Inf goes to json.Marshal, which words the refusal.
// The scanner accepts only the canonical shape — known keys, each at most
// once, no whitespace, escape-free valid-UTF-8 strings, strict JSON numbers,
// nothing after the closing brace — and decodes it to the value encoding/json
// would; anything else it declines, and encoding/json decodes that. The float
// and string primitives are internal/jsonenc's, which the online wire encoders
// in pkg/drybell/serve share.

// encScratch recycles encoder scratch space, so Marshal allocates only the
// slice it returns.
var encScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func marshal(appendRecord func([]byte) []byte) []byte {
	bp := encScratch.Get().(*[]byte)
	defer encScratch.Put(bp)
	*bp = appendRecord((*bp)[:0])
	return bytes.Clone(*bp)
}

func appendDocument(b []byte, d *Document) []byte {
	b = jsonenc.AppendString(append(b, `{"id":`...), d.ID, true)
	b = jsonenc.AppendString(append(b, `,"title":`...), d.Title, true)
	b = jsonenc.AppendString(append(b, `,"body":`...), d.Body, true)
	b = jsonenc.AppendString(append(b, `,"url":`...), d.URL, true)
	b = jsonenc.AppendString(append(b, `,"language":`...), d.Language, true)
	b = strconv.AppendBool(append(b, `,"gold":`...), d.Gold)
	b = jsonenc.AppendFloat(append(b, `,"crawler":{"engagement":`...), d.Crawler.EngagementScore)
	b = jsonenc.AppendFloat(append(b, `,"authority":`...), d.Crawler.DomainAuthority)
	return append(b, "}}"...)
}

func appendEvent(b []byte, e *Event) []byte {
	b = jsonenc.AppendString(append(b, `{"id":`...), e.ID, true)
	b = appendFloats(append(b, `,"servable":`...), e.Servable)
	b = appendFloats(append(b, `,"agg_stats":`...), e.AggStats)
	b = appendFloats(append(b, `,"graph_scores":`...), e.GraphScores)
	b = strconv.AppendBool(append(b, `,"gold":`...), e.Gold)
	return append(b, '}')
}

func appendFloats(b []byte, fs []float64) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendFloat(b, f)
	}
	return append(b, ']')
}

// scanner is a cursor over one payload. ok turns false at the first departure
// from the canonical shape and stays false, so callers test it once at the end.
type scanner struct {
	data []byte
	i    int
	ok   bool
}

// peek returns the next byte, or 0 — which no rule accepts — at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.data) {
		return s.data[s.i]
	}
	return 0
}

func (s *scanner) expect(c byte) {
	if s.ok = s.ok && s.peek() == c; s.ok {
		s.i++
	}
}

// str scans a string literal and returns its contents, which alias the
// payload. It declines escapes, control characters and invalid UTF-8:
// encoding/json rewrites the first and the last and refuses the second.
func (s *scanner) str() []byte {
	s.expect('"')
	data, start, ascii := s.data, s.i, true
	for j := start; s.ok && j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			s.i = j + 1
			s.ok = ascii || utf8.Valid(data[start:j])
			return data[start:j]
		case c < 0x20 || c == '\\':
			s.ok = false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.ok = false
	return nil
}

func (s *scanner) digits() {
	j := s.i
	for j < len(s.data) && '0' <= s.data[j] && s.data[j] <= '9' {
		j++
	}
	s.ok = s.ok && j > s.i
	s.i = j
}

// number scans a number of the JSON grammar (no leading zeros, bare '.', hex
// or NaN) and converts it as encoding/json does; out of range is declined.
func (s *scanner) number() float64 {
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else {
		s.digits()
	}
	if s.peek() == '.' {
		s.i++
		s.digits()
	}
	if s.peek()|0x20 == 'e' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		s.digits()
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.i]), 64)
	s.ok = s.ok && err == nil
	return f
}

// floats scans an array of exactly len(dst) numbers.
func (s *scanner) floats(dst []float64) {
	s.expect('[')
	for k := 0; k < len(dst) && s.ok; k++ {
		if k > 0 {
			s.expect(',')
		}
		dst[k] = s.number()
	}
	s.expect(']')
}

func (s *scanner) bool() bool {
	v := s.peek() == 't'
	for _, c := range []byte(strconv.FormatBool(v)) {
		s.expect(c)
	}
	return v
}

// object walks `{"key":value,...}`, calling field with k at the value of
// keys[k], which field consumes. Any other key is declined, and so is one met
// twice (encoding/json would keep the last value). It returns the keys met.
func (s *scanner) object(keys []string, field func(k int)) (seen uint) {
	s.expect('{')
	for s.ok {
		key, k := s.str(), -1
		for j, name := range keys {
			if string(key) == name {
				k = j
			}
		}
		s.expect(':')
		if s.ok = s.ok && k >= 0 && seen&(1<<k) == 0; s.ok {
			seen |= 1 << k
			field(k)
		}
		if s.peek() != ',' {
			break
		}
		s.i++
	}
	s.expect('}')
	return seen
}

var (
	documentKeys = []string{"id", "title", "body", "url", "language", "gold", "crawler"}
	crawlerKeys  = []string{"engagement", "authority"}
	eventKeys    = []string{"id", "servable", "agg_stats", "graph_scores", "gold"}
)

// scanDocument is the fast path of UnmarshalDocument. Its five strings are
// substrings of one, laid out title + " " + body + id + url + language, whose
// head is the document's text: a decoded document is two allocations, and its
// Text() is free.
func scanDocument(data []byte) (*Document, bool) {
	s := scanner{data: data, ok: true}
	var d Document
	var id, title, body, url, language []byte // alias data until copied below
	text := [...]*[]byte{&id, &title, &body, &url, &language}
	stats := [...]*float64{&d.Crawler.EngagementScore, &d.Crawler.DomainAuthority}
	s.object(documentKeys, func(k int) {
		switch {
		case k < len(text):
			*text[k] = s.str()
		case documentKeys[k] == "gold":
			d.Gold = s.bool()
		default:
			s.object(crawlerKeys, func(k int) { *stats[k] = s.number() })
		}
	})
	if !s.ok || s.i != len(data) {
		return nil, false
	}
	var b strings.Builder
	b.Grow(len(title) + 1 + len(body) + len(id) + len(url) + len(language))
	for _, f := range [][]byte{title, {' '}, body, id, url, language} {
		b.Write(f)
	}
	all := b.String()
	d.text, all = all[:len(title)+1+len(body)], all[len(title)+1+len(body):]
	d.Title, d.Body = d.text[:len(title)], d.text[len(title)+1:]
	d.ID, all = all[:len(id)], all[len(id):]
	d.URL, d.Language = all[:len(url)], all[len(url):]
	return &d, true
}

// eventRecord is a decoded event and the storage of its three vectors, so a
// decoded event is two allocations: this and its ID.
type eventRecord struct {
	e Event
	f [EventServableDim + EventAggDim + EventGraphDim]float64
}

// scanEvent is the fast path of UnmarshalEvent. Besides the canonical shape
// it requires what checkEventDims requires, so whatever it accepts is valid.
func scanEvent(data []byte) (*Event, bool) {
	const aggAt, graphAt = EventServableDim, EventServableDim + EventAggDim
	s := scanner{data: data, ok: true}
	r := new(eventRecord)
	// Full slice expressions: appending to one vector must not write into
	// the next.
	r.e.Servable, r.e.AggStats, r.e.GraphScores = r.f[:aggAt:aggAt], r.f[aggAt:graphAt:graphAt], r.f[graphAt:]
	vectors := [...][]float64{r.e.Servable, r.e.AggStats, r.e.GraphScores}
	seen := s.object(eventKeys, func(k int) {
		switch {
		case k == 0:
			r.e.ID = string(s.str())
		case k <= len(vectors):
			s.floats(vectors[k-1])
		default:
			r.e.Gold = s.bool()
		}
	})
	if !s.ok || s.i != len(data) || seen&0b1110 != 0b1110 { // a vector is missing
		return nil, false
	}
	return &r.e, true
}

// checkEventDims refuses an event whose vectors are not of the task's
// dimensions: the labeling functions index them without looking.
func checkEventDims(e *Event) error {
	got := [...]int{len(e.Servable), len(e.AggStats), len(e.GraphScores)}
	for k, want := range [...]int{EventServableDim, EventAggDim, EventGraphDim} {
		if got[k] != want {
			return fmt.Errorf("%s has %d values, want %d", eventKeys[k+1], got[k], want)
		}
	}
	return nil
}
