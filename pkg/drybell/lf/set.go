package lf

import "fmt"

// Set is a named, validated collection of labeling functions — one
// application's weak-supervision sources, in label-matrix column order. A
// Set's functions are guaranteed to have unique non-empty names.
type Set[T any] struct {
	name   string
	lfs    []LF[T]
	byName map[string]LF[T]
}

// NewSet builds a named set, validating that every function has a unique
// non-empty name (duplicate names would overwrite each other's vote shards
// on the distributed filesystem).
func NewSet[T any](name string, lfs ...LF[T]) (*Set[T], error) {
	if name == "" {
		return nil, fmt.Errorf("lf: set needs a name")
	}
	if err := ValidateNames(lfs); err != nil {
		return nil, fmt.Errorf("lf: set %q: %w", name, err)
	}
	byName := make(map[string]LF[T], len(lfs))
	for _, f := range lfs {
		byName[f.LFMeta().Name] = f
	}
	return &Set[T]{name: name, lfs: append([]LF[T](nil), lfs...), byName: byName}, nil
}

// Name returns the set's (application) name.
func (s *Set[T]) Name() string { return s.name }

// Len returns the number of functions.
func (s *Set[T]) Len() int { return len(s.lfs) }

// LFs returns the functions in column order. The slice is a copy; the
// functions are not.
func (s *Set[T]) LFs() []LF[T] { return append([]LF[T](nil), s.lfs...) }

// Get returns the named function.
func (s *Set[T]) Get(name string) (LF[T], bool) {
	f, ok := s.byName[name]
	return f, ok
}

// Names returns function names in column order.
func (s *Set[T]) Names() []string { return Names(s.lfs) }

// Metas returns function metadata in column order.
func (s *Set[T]) Metas() []Meta { return Metas(s.lfs) }

// Census counts functions per category — the Figure 2 histogram.
func (s *Set[T]) Census() map[Category]int { return Census(s.lfs) }

// ServableIndices returns the column indices of servable functions.
func (s *Set[T]) ServableIndices() []int { return ServableIndices(s.lfs) }
