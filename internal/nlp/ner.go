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
}

// NewNER returns the recognizer over the package gazetteers.
func NewNER(missRate float64, seed int64) *NER {
	le := binary.LittleEndian.AppendUint64(nil, uint64(seed))
	return &NER{MissRate: missRate, seedHash: fnv1a(fnvOffset64, string(le))}
}

// missed reports whether n misses the mention of name in text: a uniform draw
// in [0,1) from FNV-1a(seed ‖ text ‖ 0 ‖ name), whatever was recognized
// before it. *doc caches the hash of seed ‖ text ‖ 0 (0 until first needed).
func (n *NER) missed(doc *uint64, text, name string) bool {
	if n.MissRate <= 0 {
		return false
	}
	if *doc == 0 {
		*doc = fnv1a(n.seedHash, text) * fnvPrime64 // the 0 byte: h ^ 0 == h
	}
	return float64(fnv1a(*doc, name)>>11)/float64(1<<53) < n.MissRate
}

// People filters entities to persons, allocating at most once; nil if there
// are none.
func People(entities []Entity) []Entity {
	var out []Entity
	for _, e := range entities {
		if e.Type == EntityPerson {
			if out == nil {
				out = make([]Entity, 0, len(entities))
			}
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
