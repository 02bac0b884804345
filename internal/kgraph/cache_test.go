package kgraph

import (
	"sync"
	"testing"
)

// countingClient wraps a Graph and counts calls that reach it.
type countingClient struct {
	g          *Graph
	mu         sync.Mutex
	occCalls   int
	transCalls int
}

func (c *countingClient) Occupation(name string) string {
	c.mu.Lock()
	c.occCalls++
	c.mu.Unlock()
	return c.g.Occupation(name)
}

func (c *countingClient) Translate(kw, lang string) (string, bool) {
	c.mu.Lock()
	c.transCalls++
	c.mu.Unlock()
	return c.g.Translate(kw, lang)
}

func TestCacheMemoizesOccupation(t *testing.T) {
	inner := &countingClient{g: Builtin()}
	c, err := NewCache(inner, 8)
	if err != nil {
		t.Fatal(err)
	}
	name := "Ava Stone"
	want := inner.g.Occupation(name)
	for i := 0; i < 5; i++ {
		if got := c.Occupation(name); got != want {
			t.Fatalf("occupation = %q, want %q", got, want)
		}
	}
	if inner.occCalls != 1 { // only the first cache miss reaches the graph
		t.Errorf("graph calls = %d, want 1", inner.occCalls)
	}
	if c.Hits() != 4 || c.occupations.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 4/1", c.Hits(), c.occupations.Misses())
	}
}

func TestCacheMemoizesNegativeAnswers(t *testing.T) {
	inner := &countingClient{g: Builtin()}
	c, _ := NewCache(inner, 8)
	for i := 0; i < 3; i++ {
		if occ := c.Occupation("Nobody At All"); occ != "" {
			t.Fatalf("occupation = %q for unknown person", occ)
		}
		if _, ok := c.Translate("helmet", "xx"); ok {
			t.Fatal("translation invented for unknown language")
		}
	}
	if inner.occCalls != 1 || inner.transCalls != 1 {
		t.Errorf("graph calls = %d/%d, want 1/1 (absence cached)", inner.occCalls, inner.transCalls)
	}
}

func TestCacheTranslateKeysDoNotCollide(t *testing.T) {
	g := Builtin()
	c, _ := NewCache(g, 32)
	for _, lang := range Languages[1:] {
		direct, dok := g.Translate("helmet", lang)
		cached, cok := c.Translate("helmet", lang)
		if direct != cached || dok != cok {
			t.Errorf("lang %s: cache %q/%v != graph %q/%v", lang, cached, cok, direct, dok)
		}
	}
}

func TestCacheRejectsBadArgs(t *testing.T) {
	if _, err := NewCache(nil, 8); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := NewCache(Builtin(), 0); err == nil {
		t.Error("zero capacity accepted")
	}
}
