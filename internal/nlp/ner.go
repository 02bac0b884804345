package nlp

import (
	"encoding/binary"
	"strings"
)

// EntityType classifies a recognized entity.
type EntityType int

// Entity types produced by the NER model.
const (
	EntityPerson EntityType = iota
	EntityOrg
	EntityPlace
)

func (t EntityType) String() string {
	switch t {
	case EntityPerson:
		return "person"
	case EntityOrg:
		return "org"
	case EntityPlace:
		return "place"
	default:
		return "unknown"
	}
}

// Entity is one recognized span.
type Entity struct {
	// Text is the normalized entity string, e.g. "ava stone".
	Text string
	// Type is the entity class.
	Type EntityType
	// Confidence is the model's score in (0,1].
	Confidence float64
}

// NER is a gazetteer-based named-entity recognizer with configurable
// per-mention miss probability, standing in for Google's internal NER
// models. It is safe for concurrent use.
//
// Misses are a pure function of (seed, text, mention), not of a sequential
// random stream: a labeling function's vote on a document must not depend on
// where the document sits in an execution stream, or incremental delta
// execution (which repositions documents into their own small jobs) could
// never reproduce a full run's votes byte for byte.
type NER struct {
	// MissRate is the probability a true mention is not recognized,
	// simulating model recall < 1. Zero means perfect gazetteer recall.
	MissRate float64

	seedHash uint64 // FNV-1a of the seed's 8 little-endian bytes
	// byFirst indexes the gazetteers on each name's first token, so the scan
	// does one lookup per word and builds no candidate strings. Write-once in
	// NewNER, immutable after; lock-free reads are safe.
	byFirst map[string][]gazEntry
}

// gazEntry is one gazetteer name of one or two tokens.
type gazEntry struct {
	name   string // the full normalized name, as emitted
	second string // its second token; "" for a one-token name
	typ    EntityType
}

// NewNER builds the recognizer over the package gazetteers.
func NewNER(missRate float64, seed int64) *NER {
	le := binary.LittleEndian.AppendUint64(nil, uint64(seed))
	n := &NER{MissRate: missRate, seedHash: fnv1a(fnvOffset64, string(le)), byFirst: make(map[string][]gazEntry)}
	for _, g := range []struct {
		names []string
		typ   EntityType
	}{
		{CelebrityNames, EntityPerson},
		{OtherPersonNames, EntityPerson},
		{OrgNames, EntityOrg},
		{PlaceNames, EntityPlace},
	} {
		for _, name := range g.names {
			first, second, _ := strings.Cut(name, " ")
			n.byFirst[first] = append(n.byFirst[first], gazEntry{name: name, second: second, typ: g.typ})
		}
	}
	return n
}

// Recognize returns the entities found in text. Multi-word gazetteer entries
// are matched over adjacent token windows (the gazetteers use one- and
// two-token names).
func (n *NER) Recognize(text string) []Entity { return n.recognize(text, Words(text)) }

// recognize is Recognize over text's already-computed Words. At each word a
// two-token name wins over a one-token name; each name is emitted once.
func (n *NER) recognize(text string, words []string) []Entity {
	var out []Entity
	var doc uint64 // FNV-1a of seed ‖ text ‖ 0, hashed at the first mention
	for i, w := range words {
		var match *gazEntry
		entries := n.byFirst[w]
		for k := range entries {
			e := &entries[k]
			if e.second == "" {
				if match == nil {
					match = e
				}
			} else if i+1 < len(words) && e.second == words[i+1] {
				match = e
				break
			}
		}
		if match == nil || ContainsName(out, match.name) {
			continue
		}
		// A miss is a uniform draw in [0,1) from FNV-1a(seed ‖ text ‖ 0 ‖ name):
		// the same mention in the same document under the same seed always
		// draws the same number, whatever was recognized before it.
		if n.MissRate > 0 {
			if doc == 0 {
				doc = fnv1a(n.seedHash, text) * fnvPrime64 // the 0 byte: h ^ 0 == h
			}
			if float64(fnv1a(doc, match.name)>>11)/float64(1<<53) < n.MissRate {
				continue
			}
		}
		out = append(out, Entity{Text: match.name, Type: match.typ, Confidence: 0.9})
	}
	return out
}

// People filters entities to persons.
func People(entities []Entity) []Entity {
	var out []Entity
	for _, e := range entities {
		if e.Type == EntityPerson {
			out = append(out, e)
		}
	}
	return out
}

// ContainsName reports whether any entity matches the given normalized name.
func ContainsName(entities []Entity, name string) bool {
	name = strings.ToLower(name)
	for _, e := range entities {
		if e.Text == name {
			return true
		}
	}
	return false
}

// fnv1a folds s into the FNV-1a state h exactly as hash/fnv.New64a would,
// written out so that hashing a document copies and allocates nothing.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211
