package kgraph

import (
	"fmt"
	"testing"

	"repro/internal/nlp"
)

func TestEntityRoundTrip(t *testing.T) {
	g := New()
	g.AddEntity(&Entity{ID: "person/x", Kind: KindPerson, Name: "x",
		Props: map[string]string{"occupation": "celebrity"}})
	e := g.Entity("person/x")
	if e == nil || e.Props["occupation"] != "celebrity" {
		t.Fatalf("Entity = %+v", e)
	}
	if g.Entity("missing") != nil {
		t.Error("missing entity should be nil")
	}
	if len(g.entities) != 1 {
		t.Errorf("%d entities, want 1", len(g.entities))
	}
}

func TestAddEntityCopies(t *testing.T) {
	g := New()
	e := &Entity{ID: "a", Name: "a"}
	g.AddEntity(e)
	e.Name = "mutated"
	if g.Entity("a").Name != "a" {
		t.Error("AddEntity aliases caller struct")
	}
}

func TestTaxonomy(t *testing.T) {
	g := Builtin()
	acc := CategoryID(CategoryBikeAccessory)
	bikes := CategoryID(CategoryBicycles)
	if !g.IsDescendantOf(acc, bikes) {
		t.Error("bike accessories should descend from bicycles")
	}
	if !g.IsDescendantOf(bikes, bikes) {
		t.Error("a category descends from itself")
	}
	other := CategoryID(CategoryOtherAccessory)
	if g.IsDescendantOf(other, bikes) {
		t.Error("other accessories must not descend from bicycles")
	}
	anc := g.Ancestors(acc)
	if len(anc) != 1 || anc[0] != bikes {
		t.Errorf("Ancestors = %v", anc)
	}
}

func TestAncestorsCycleSafe(t *testing.T) {
	g := New()
	g.AddEntity(&Entity{ID: "a"})
	g.AddEntity(&Entity{ID: "b"})
	g.SetParent("a", "b")
	g.SetParent("b", "a")
	if got := g.Ancestors("a"); len(got) != 1 {
		t.Errorf("cycle not broken: %v", got)
	}
}

func TestTranslations(t *testing.T) {
	g := Builtin()
	form, ok := g.Translate("helmet", "fr")
	if !ok || form != "fr_temleh" {
		t.Errorf("Translate(helmet, fr) = %q, %v", form, ok)
	}
	form, ok = g.Translate("helmet", "en")
	if !ok || form != "helmet" {
		t.Errorf("Translate(helmet, en) = %q, %v", form, ok)
	}
	if _, ok := g.Translate("helmet", "xx"); ok {
		t.Error("unknown language should miss")
	}
	if _, ok := g.Translate("unknownkw", "fr"); ok {
		t.Error("unknown keyword should miss")
	}
	all := g.TranslationsOf("helmet")
	if len(all) != len(Languages) {
		t.Errorf("TranslationsOf = %d forms, want %d", len(all), len(Languages))
	}
	for i := 0; i+1 < len(all); i++ {
		if all[i].Language >= all[i+1].Language {
			t.Error("translations not sorted by language")
		}
	}
}

func TestOccupations(t *testing.T) {
	g := Builtin()
	if !IsCelebrity(g, nlp.CelebrityNames[0]) {
		t.Errorf("%q should be a celebrity", nlp.CelebrityNames[0])
	}
	if IsCelebrity(g, nlp.OtherPersonNames[0]) {
		t.Errorf("%q should not be a celebrity", nlp.OtherPersonNames[0])
	}
	if g.Occupation("nobody at all") != "" {
		t.Error("unknown person should have empty occupation")
	}
}

// Validate checks referential integrity: every parent edge and translation
// refers to existing nodes. Builtin is built to pass it.
func (g *Graph) Validate() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for child, parent := range g.parents {
		if g.entities[child] == nil {
			return fmt.Errorf("kgraph: parent edge from unknown node %q", child)
		}
		if g.entities[parent] == nil {
			return fmt.Errorf("kgraph: parent edge to unknown node %q", parent)
		}
	}
	for kw := range g.translations {
		if g.entities["keyword/"+kw] == nil {
			return fmt.Errorf("kgraph: translations for unknown keyword %q", kw)
		}
	}
	return nil
}

func TestBuiltinValidates(t *testing.T) {
	if err := Builtin().Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesDangles(t *testing.T) {
	g := New()
	g.AddEntity(&Entity{ID: "a"})
	g.SetParent("a", "ghost")
	if err := g.Validate(); err == nil {
		t.Error("dangling parent accepted")
	}
	g2 := New()
	g2.AddTranslation("kw", "fr", "kw_fr")
	if err := g2.Validate(); err == nil {
		t.Error("translation for unknown keyword accepted")
	}
}

func TestIDHelpers(t *testing.T) {
	if PersonID("Ava Stone") != "person/ava_stone" {
		t.Errorf("PersonID = %q", PersonID("Ava Stone"))
	}
	if CategoryID("Bike Parts") != "category/bike_parts" {
		t.Errorf("CategoryID = %q", CategoryID("Bike Parts"))
	}
}

func TestBuiltinCoversAllGazetteerPersons(t *testing.T) {
	g := Builtin()
	for _, name := range nlp.CelebrityNames {
		if g.Occupation(name) != "celebrity" {
			t.Errorf("celebrity %q missing from graph", name)
		}
	}
	for _, name := range nlp.OtherPersonNames {
		if g.Occupation(name) != "civilian" {
			t.Errorf("person %q missing from graph", name)
		}
	}
}
