// Package features extracts servable feature vectors for the discriminative
// models. The central invariant of cross-feature serving (paper §4) is
// enforced here: everything this package produces is computable from fields
// available at serving time (text, URL, real-time event vectors) — never
// from crawler aggregates, NER output, topic-model scores, or the knowledge
// graph, which exist only on the labeling-function side.
package features

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/nlp"
	"repro/internal/par"
)

// SparseVector is a sorted sparse feature vector. Indices are strictly
// increasing; Values holds the corresponding weights.
type SparseVector struct {
	Indices []uint32
	Values  []float64
}

// Dot returns the inner product with a dense weight vector.
func (v *SparseVector) Dot(w []float64) float64 {
	s := 0.0
	for k, idx := range v.Indices {
		s += w[idx] * v.Values[k]
	}
	return s
}

// dotBlockVectors is the fewest vectors a block of DotBatchInto holds: a
// smaller batch is one block, scored on the caller's goroutine.
const dotBlockVectors = 128

// DotBatchInto computes the inner product of every vector with one dense
// weight vector into a caller-provided slice (which must have len(xs)
// entries) and returns it — the batch scoring primitive the online serving
// path uses to score a micro-batch as one operation instead of per-request
// calls, allocation-free for callers that reuse buffers. Large batches are
// split into up to par.Procs() blocks.
func DotBatchInto(xs []*SparseVector, w []float64, out []float64) []float64 {
	if len(out) != len(xs) {
		panic(fmt.Sprintf("features: DotBatchInto got %d outputs for %d vectors", len(out), len(xs)))
	}
	blocks := max(1, min(par.Procs(), len(xs)/dotBlockVectors))
	if blocks == 1 {
		dotRange(xs, w, out) // without the closure a fan-out allocates
		return out
	}
	_ = par.Each(blocks, blocks, func(b int) error { // dotRange cannot fail
		lo, hi := b*len(xs)/blocks, (b+1)*len(xs)/blocks
		dotRange(xs[lo:hi], w, out[lo:hi])
		return nil
	})
	return out
}

func dotRange(xs []*SparseVector, w []float64, out []float64) {
	for i, x := range xs {
		out[i] = x.Dot(w)
	}
}

// Hasher maps token features into a fixed-dimension space by hashing
// (the standard production trick for unbounded vocabularies).
type Hasher struct {
	// Dim is the feature-space size; must be a power of two.
	Dim uint32
}

// NewHasher returns a Hasher with the given power-of-two dimension.
func NewHasher(dim uint32) (*Hasher, error) {
	if dim == 0 || dim&(dim-1) != 0 {
		return nil, fmt.Errorf("features: dimension %d is not a power of two", dim)
	}
	return &Hasher{Dim: dim}, nil
}

// 32-bit FNV-1a, as hash/fnv computes it. Written out so that a hash can be
// continued from any state: the features of a document are a prefix and a
// token or two, and hashing them from the state after the prefix means no
// feature string is ever built.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// fnvAdd continues the hash h over the bytes of s.
func fnvAdd(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

// The hash states after the feature prefixes DocumentVector hashes under.
var (
	wordSeed   = fnvAdd(fnvOffset, "w:")
	bigramSeed = fnvAdd(fnvOffset, "b:")
	domainSeed = fnvAdd(fnvOffset, "d:")
	langSeed   = fnvAdd(fnvOffset, "lang:")
)

// URLDomain extracts the host from a URL-ish string (servable: the URL
// arrives with the content).
func URLDomain(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// docScratch is what DocumentVector needs besides the vector it returns.
type docScratch struct {
	words []string
	idx   []uint32
}

var docScratchPool = sync.Pool{New: func() any { return new(docScratch) }}

// DocumentVector hashes a document's servable features: "w:" unigrams and,
// with bigrams, "b:" bigrams of title+body (the topic task has an order of
// magnitude more features than the product task in the paper; bigrams only
// for rich text mirror that), "d:" the URL domain and "lang:" the language.
// Each coordinate counts the features that 32-bit FNV-1a, masked to Dim,
// maps to it, and the tests hold this bit for bit to a reference that builds
// the feature strings. It is computed without them: each feature is hashed
// from its prefix's state over the token bytes, the coordinates are sorted
// and runs of equal ones counted.
func (h *Hasher) DocumentVector(d *corpus.Document, bigrams bool) *SparseVector {
	sc := docScratchPool.Get().(*docScratch)
	// Title then body is the token stream of d.Text(): the space that joins
	// them there separates tokens.
	words := nlp.AppendWords(nlp.AppendWords(sc.words[:0], d.Title), d.Body)
	mask := h.Dim - 1
	idx := sc.idx[:0]
	for _, w := range words {
		idx = append(idx, fnvAdd(wordSeed, w)&mask)
	}
	if bigrams {
		for i := 0; i+1 < len(words); i++ {
			idx = append(idx, fnvAdd(fnvAdd(fnvAdd(bigramSeed, words[i]), "_"), words[i+1])&mask)
		}
	}
	if dom := URLDomain(d.URL); dom != "" {
		idx = append(idx, fnvAdd(domainSeed, dom)&mask)
	}
	idx = append(idx, fnvAdd(langSeed, d.Language)&mask)

	slices.Sort(idx)
	distinct := 1 // idx holds the language feature at least
	for i := 1; i < len(idx); i++ {
		if idx[i] != idx[i-1] {
			distinct++
		}
	}
	v := &SparseVector{Indices: make([]uint32, 0, distinct), Values: make([]float64, 0, distinct)}
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[i] {
			j++
		}
		v.Indices = append(v.Indices, idx[i])
		v.Values = append(v.Values, float64(j-i))
		i = j
	}

	clear(words) // the tokens alias the document's text; do not keep it alive
	sc.words, sc.idx = words, idx
	docScratchPool.Put(sc)
	return v
}

// DocumentVectors hashes a batch.
func (h *Hasher) DocumentVectors(docs []*corpus.Document, bigrams bool) []*SparseVector {
	out := make([]*SparseVector, len(docs))
	for i, d := range docs {
		out[i] = h.DocumentVector(d, bigrams)
	}
	return out
}
