package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/jsonenc"
)

// The record codec. A Document is JSON, and its encoder and scanner need no
// reflection; the fuzz targets in codec_test.go hold them to encoding/json.
// The encoder writes exactly the bytes json.Marshal writes; a value holding
// NaN or ±Inf goes to json.Marshal, which words the refusal. The scanner
// accepts only the canonical shape — known keys, each at most once, no
// whitespace, escape-free valid-UTF-8 strings, strict JSON numbers, nothing
// after the closing brace — and decodes it to the value encoding/json would;
// anything else it declines, and encoding/json decodes that. The float and
// string primitives are internal/jsonenc's, which the online wire encoders in
// pkg/drybell/serve share.
//
// An Event's record is fixed-width binary, not float text: eventMagic, a gold
// byte, the ID's length as a uvarint and its bytes, then Servable, AggStats
// and GraphScores as 28 little-endian float64s, so floats and IDs round-trip
// bit for bit. UnmarshalEvent gives any other payload to encoding/json: events
// staged as JSON, and JSONL dumps, still decode.

// encScratch recycles encoder scratch space, so Document.Marshal allocates
// only the slice it returns.
var encScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func marshalDocument(d *Document) []byte {
	bp := encScratch.Get().(*[]byte)
	defer encScratch.Put(bp)
	*bp = appendDocument((*bp)[:0], d)
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

// eventMagic opens every binary event record; no JSON text starts with it.
const eventMagic = 0xE5

const eventDim = EventServableDim + EventAggDim + EventGraphDim // floats per event

// eventRecord is a decoded event and the storage of its three vectors, so a
// decoded event is two allocations: this and its ID.
type eventRecord struct {
	e Event
	f [eventDim]float64
}

// decodeEvent reads a binary record. It refuses every payload Marshal could
// not have written, so whatever it accepts encodes back to the same bytes.
func decodeEvent(data []byte) (*Event, error) {
	const aggAt, graphAt = EventServableDim, EventServableDim + EventAggDim
	if len(data) < 3 {
		return nil, fmt.Errorf("record of %d bytes is truncated", len(data))
	}
	if data[1] > 1 {
		return nil, fmt.Errorf("gold byte is %d, want 0 or 1", data[1])
	}
	idLen, n := binary.Uvarint(data[2:])
	var canonical [binary.MaxVarintLen64]byte
	if n <= 0 || binary.PutUvarint(canonical[:], idLen) != n {
		return nil, errors.New("id length is not a minimal uvarint")
	}
	rest := data[2+n:]
	if idLen > uint64(len(rest)) {
		return nil, fmt.Errorf("id of %d bytes runs past the end of the record", idLen)
	}
	id, floats := rest[:idLen], rest[idLen:]
	if len(floats) != 8*eventDim {
		return nil, fmt.Errorf("record is %d bytes, want %d", len(data), len(data)-len(floats)+8*eventDim)
	}
	r := new(eventRecord)
	for k := range r.f {
		if r.f[k] = math.Float64frombits(binary.LittleEndian.Uint64(floats[8*k:])); !jsonenc.Finite(r.f[k]) {
			return nil, fmt.Errorf("unsupported value: %v", r.f[k])
		}
	}
	// Full slice expressions: appending to one vector must not write into the
	// next.
	r.e.Servable, r.e.AggStats, r.e.GraphScores = r.f[:aggAt:aggAt], r.f[aggAt:graphAt:graphAt], r.f[graphAt:]
	r.e.ID, r.e.Gold = string(id), data[1] == 1
	return &r.e, nil
}

// checkEventDims refuses an event whose vectors are not of the task's
// dimensions: the labeling functions index them without looking.
func checkEventDims(e *Event) error {
	got := [...]int{len(e.Servable), len(e.AggStats), len(e.GraphScores)}
	for k, want := range [...]int{EventServableDim, EventAggDim, EventGraphDim} {
		if got[k] != want {
			return fmt.Errorf("%s has %d values, want %d", [...]string{"servable", "agg_stats", "graph_scores"}[k], got[k], want)
		}
	}
	return nil
}
