// Package kgraph simulates the Knowledge Graph the product-classification
// case study queries (paper §3.2): typed entities, a product taxonomy with
// category ancestry, per-person occupations, and keyword translations in ten
// languages ("we queried Google's Knowledge Graph for translations of
// keywords in ten languages").
package kgraph

import (
	"sort"
	"strings"
	"sync"
)

// EntityKind classifies graph nodes.
type EntityKind int

// Entity kinds.
const (
	KindPerson EntityKind = iota
	KindProductCategory
	KindKeyword
)

// Entity is one graph node.
type Entity struct {
	// ID is the unique node id, e.g. "person/ava_stone".
	ID string
	// Kind is the node's class.
	Kind EntityKind
	// Name is the display name.
	Name string
	// Props holds string properties, e.g. "occupation" for persons.
	Props map[string]string
}

// Graph is an in-memory typed entity graph. It is safe for concurrent reads
// after construction; mutation methods are serialized.
type Graph struct {
	mu       sync.RWMutex
	entities map[string]*Entity // guarded by mu
	// parents maps a category node to its parent category ("subcategory_of").
	// guarded by mu
	parents map[string]string
	// translations maps keyword -> language -> translated surface form.
	// guarded by mu
	translations map[string]map[string]string
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		entities:     make(map[string]*Entity),
		parents:      make(map[string]string),
		translations: make(map[string]map[string]string),
	}
}

// AddEntity inserts or replaces a node.
func (g *Graph) AddEntity(e *Entity) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cp := *e
	if cp.Props == nil {
		cp.Props = map[string]string{}
	}
	g.entities[e.ID] = &cp
}

// Entity returns the node with the given id, or nil.
func (g *Graph) Entity(id string) *Entity {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entities[id]
}

// SetParent records that category child is a subcategory of parent.
func (g *Graph) SetParent(child, parent string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.parents[child] = parent
}

// Ancestors returns the category chain from the node's parent to the root.
// Cycles are broken defensively.
func (g *Graph) Ancestors(id string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	seen := map[string]bool{id: true}
	for {
		p, ok := g.parents[id]
		if !ok || seen[p] {
			return out
		}
		out = append(out, p)
		seen[p] = true
		id = p
	}
}

// IsDescendantOf reports whether id equals ancestor or lies below it in the
// taxonomy. This is the primitive behind "accessories and parts are now in
// the category of interest" (§3.2).
func (g *Graph) IsDescendantOf(id, ancestor string) bool {
	if id == ancestor {
		return true
	}
	for _, a := range g.Ancestors(id) {
		if a == ancestor {
			return true
		}
	}
	return false
}

// AddTranslation records keyword's surface form in a language.
func (g *Graph) AddTranslation(keyword, language, form string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.translations[keyword]
	if !ok {
		m = make(map[string]string)
		g.translations[keyword] = m
	}
	m[language] = form
}

// Translate returns keyword's form in language; ok is false when the graph
// has no translation (the LF then abstains — realistic coverage gaps).
func (g *Graph) Translate(keyword, language string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	form, ok := g.translations[keyword][language]
	return form, ok
}

// TranslationsOf returns every known (language, form) pair for keyword,
// sorted by language for determinism.
func (g *Graph) TranslationsOf(keyword string) []Translation {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Translation
	for lang, form := range g.translations[keyword] {
		out = append(out, Translation{Language: lang, Form: form})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Language < out[b].Language })
	return out
}

// Translation is one localized surface form.
type Translation struct {
	Language string
	Form     string
}

// Occupation returns a person entity's occupation property, or "".
func (g *Graph) Occupation(personName string) string {
	id := PersonID(personName)
	e := g.Entity(id)
	if e == nil {
		return ""
	}
	return e.Props["occupation"]
}

// PersonID derives the canonical node id for a person name.
func PersonID(name string) string {
	return "person/" + strings.ReplaceAll(strings.ToLower(name), " ", "_")
}

// CategoryID derives the canonical node id for a product category.
func CategoryID(name string) string {
	return "category/" + strings.ReplaceAll(strings.ToLower(name), " ", "_")
}
