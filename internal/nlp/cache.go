package nlp

import (
	"fmt"

	"repro/internal/lru"
)

// Annotator is the call surface labeling functions use to reach the NLP
// models. *Server is the direct implementation; Cache wraps any Annotator
// with memoization for the online serving path, where the same content can
// arrive many times and the models are too expensive to re-run (§5.1's
// rationale for keeping them out of the serving stack in the first place).
type Annotator interface {
	Annotate(text string) (*Result, error)
}

var _ Annotator = (*Server)(nil)

// Cache memoizes Annotate calls in an LRU keyed on the annotated text. Safe
// for concurrent use. Racing misses on the same text may both consult the
// inner annotator; the models are pure functions of the text (NER misses
// included, see NER), so both get the same answer and only the work is
// repeated.
type Cache struct {
	inner Annotator
	lru   *lru.Cache[string, *Result]
}

var _ Annotator = (*Cache)(nil)

// NewCache wraps inner with an LRU of the given capacity.
func NewCache(inner Annotator, capacity int) (*Cache, error) {
	if inner == nil {
		return nil, fmt.Errorf("nlp: NewCache(nil)")
	}
	l, err := lru.New[string, *Result](capacity)
	if err != nil {
		return nil, fmt.Errorf("nlp: %w", err)
	}
	return &Cache{inner: inner, lru: l}, nil
}

// Annotate returns the cached result for text, consulting the inner
// annotator on a miss. Errors are not cached, so a transient failure does
// not poison the key.
func (c *Cache) Annotate(text string) (*Result, error) {
	if res, ok := c.lru.Get(text); ok {
		return res, nil
	}
	res, err := c.inner.Annotate(text)
	if err != nil {
		return nil, err
	}
	c.lru.Add(text, res)
	return res, nil
}

// Hits returns the number of Annotate calls served from the cache.
func (c *Cache) Hits() int64 { return c.lru.Hits() }

// Misses returns the number of Annotate calls that reached the models.
func (c *Cache) Misses() int64 { return c.lru.Misses() }

// HitRate returns hits/(hits+misses), or 0 before any call.
func (c *Cache) HitRate() float64 { return c.lru.HitRate() }
