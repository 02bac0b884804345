package corpus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/jsonenc"
)

// The record codec. A Document's staging record (Document.Marshal) is binary:
// docMagic, a gold byte, the two crawler stats as little-endian float64s, the
// lengths of title, body, id, url and language as uvarints, then
// title + " " + body + id + url + language. Its wire format (MarshalDocuments)
// is JSON, byte for byte json.Marshal's, which also words the refusal of NaN
// or ±Inf. UnmarshalDocument hands any payload without docMagic to
// scanDocument, which accepts only the canonical shape — known keys, each at
// most once, no whitespace, escape-free valid-UTF-8 strings, strict JSON
// numbers, nothing after the closing brace — and decodes it to the value
// encoding/json would; anything else it declines, and encoding/json decodes
// that. The float and string primitives are internal/jsonenc's, which the
// online wire encoders in pkg/drybell/serve share.
//
// An Event's record is fixed-width binary, not float text: eventMagic, a gold
// byte, the ID's length as a uvarint and its bytes, then Servable, AggStats
// and GraphScores as 28 little-endian float64s, so floats and IDs round-trip
// bit for bit. UnmarshalEvent gives any other payload to encoding/json: events
// staged as JSON, and JSONL dumps, still decode.

// docMagic opens every binary document record. No JSON text starts with it,
// and it is not eventMagic.
const docMagic = 0xD0

// docHead is the width of a document record's magic, gold and crawler stats.
const docHead = 2 + 2*8

func marshalDocument(d *Document) []byte {
	fields := [...]string{d.Title, d.Body, d.ID, d.URL, d.Language}
	var scratch [binary.MaxVarintLen64]byte
	n := docHead + 1
	for _, f := range fields {
		n += binary.PutUvarint(scratch[:], uint64(len(f))) + len(f)
	}
	b := append(make([]byte, 0, n), docMagic, 0)
	if d.Gold {
		b[1] = 1
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Crawler.EngagementScore))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Crawler.DomainAuthority))
	for _, f := range fields {
		b = binary.AppendUvarint(b, uint64(len(f)))
	}
	b = append(append(b, d.Title...), ' ')
	for _, f := range fields[1:] {
		b = append(b, f...)
	}
	return b
}

// decodeDocument reads a binary record. It refuses every payload Marshal could
// not have written, so whatever it accepts encodes back to the same bytes.
func decodeDocument(data []byte) (*Document, error) {
	if len(data) < docHead {
		return nil, fmt.Errorf("record of %d bytes is truncated", len(data))
	}
	if data[1] > 1 {
		return nil, fmt.Errorf("gold byte is %d, want 0 or 1", data[1])
	}
	d := &Document{Gold: data[1] == 1}
	for k, f := range [...]*float64{&d.Crawler.EngagementScore, &d.Crawler.DomainAuthority} {
		if *f = math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*k:])); !jsonenc.Finite(*f) {
			return nil, fmt.Errorf("unsupported value: %v", *f)
		}
	}
	var lens [5]int
	var canonical [binary.MaxVarintLen64]byte
	rest, want := data[docHead:], 1 // the space after the title
	for k, name := range [...]string{"title", "body", "id", "url", "language"} {
		l, n := binary.Uvarint(rest)
		if n <= 0 || binary.PutUvarint(canonical[:], l) != n {
			return nil, fmt.Errorf("%s length is not a minimal uvarint", name)
		}
		if rest = rest[n:]; l > uint64(len(rest)) {
			return nil, fmt.Errorf("%s of %d bytes runs past the end of the record", name, l)
		}
		lens[k], want = int(l), want+int(l)
	}
	if len(rest) != want {
		return nil, fmt.Errorf("record is %d bytes, want %d", len(data), len(data)-len(rest)+want)
	}
	if rest[lens[0]] != ' ' {
		return nil, errors.New("no space between title and body")
	}
	d.cut(string(rest), lens[0], lens[1], lens[2], lens[3])
	return d, nil
}

// cut sets d's five strings to substrings of all, laid out as a record's, so a
// decoded document is two allocations and its Text() is free.
func (d *Document) cut(all string, title, body, id, url int) {
	d.text, all = all[:title+1+body], all[title+1+body:]
	d.Title, d.Body = d.text[:title], d.text[title+1:]
	d.ID, all = all[:id], all[id:]
	d.URL, d.Language = all[:url], all[url:]
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

// scanDocument is the JSON fast path of UnmarshalDocument. Its five strings
// are cut from one, as a binary record's are.
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
	d.cut(b.String(), len(title), len(body), len(id), len(url))
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
