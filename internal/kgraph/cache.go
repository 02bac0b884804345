package kgraph

import (
	"fmt"

	"repro/internal/lru"
)

// Client is the query surface labeling functions use against the knowledge
// graph. *Graph implements it directly; Cache wraps any Client with
// memoization for the online serving path, standing in for the remote
// Knowledge Graph service whose round-trips are what make graph-based
// signals non-servable (§4).
type Client interface {
	// Occupation returns a person's occupation property, or "".
	Occupation(personName string) string
	// Translate returns keyword's surface form in language; ok is false
	// when the graph has no translation.
	Translate(keyword, language string) (string, bool)
}

var _ Client = (*Graph)(nil)

// translation caches a Translate answer including its ok bit, so known
// coverage gaps are also served from cache.
type translation struct {
	form string
	ok   bool
}

// Cache memoizes Client calls in an LRU. Safe for concurrent use. Negative
// answers (unknown person, missing translation) are cached too: the graph
// is read-only at serving time, so absence is as stable as presence.
type Cache struct {
	inner        Client
	occupations  *lru.Cache[string, string]
	translations *lru.Cache[string, translation]
}

var _ Client = (*Cache)(nil)

// NewCache wraps inner with LRUs of the given per-query-kind capacity.
func NewCache(inner Client, capacity int) (*Cache, error) {
	if inner == nil {
		return nil, fmt.Errorf("kgraph: NewCache(nil)")
	}
	occ, err := lru.New[string, string](capacity)
	if err != nil {
		return nil, fmt.Errorf("kgraph: %w", err)
	}
	tr, err := lru.New[string, translation](capacity)
	if err != nil {
		return nil, fmt.Errorf("kgraph: %w", err)
	}
	return &Cache{inner: inner, occupations: occ, translations: tr}, nil
}

// Occupation implements Client.
func (c *Cache) Occupation(personName string) string {
	if occ, ok := c.occupations.Get(personName); ok {
		return occ
	}
	occ := c.inner.Occupation(personName)
	c.occupations.Add(personName, occ)
	return occ
}

// Translate implements Client.
func (c *Cache) Translate(keyword, language string) (string, bool) {
	key := keyword + "\x00" + language
	if tr, ok := c.translations.Get(key); ok {
		return tr.form, tr.ok
	}
	form, ok := c.inner.Translate(keyword, language)
	c.translations.Add(key, translation{form: form, ok: ok})
	return form, ok
}

// Hits returns cache hits across both query kinds.
//
//drybellvet:testapi — lf and serve tests check that repeated graph queries hit the cache
func (c *Cache) Hits() int64 { return c.occupations.Hits() + c.translations.Hits() }
