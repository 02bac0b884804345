package lf

import (
	"context"
	"fmt"

	"repro/internal/labelmodel"
	"repro/internal/nlp"
)

// DefaultAnnotationCacheSize bounds the Evaluator's shared NLP annotation
// LRU when no size is configured.
const DefaultAnnotationCacheSize = 1024

// Evaluator evaluates a fixed labeling-function set outside the MapReduce
// machinery — the execution core of the online serving path, operating on
// the very same LF values the batch executor runs as jobs.
//
// Construction resolves the set's shared NLP service: expensive model
// servers are one-per-node offline, so online every NLP function in the set
// consults a single annotator behind an LRU cache keyed on the annotated
// text. NewEvaluator injects it into every Annotatable function; Setup then
// readies remaining lifecycles (graph caches, etc.).
type Evaluator[T any] struct {
	lfs   []LF[T]
	metas []Meta
	cache *nlp.Cache // nil when the set has no NLP functions
	stop  func()     // stops the annotator the evaluator resolved; nil when there is none or it is the caller's
}

// NewEvaluator builds an evaluator over the set, validating name
// uniqueness. ann overrides the NLP service (nil asks the set's first
// AnnotatorSource); cacheSize bounds the annotation LRU (<=0 selects
// DefaultAnnotationCacheSize).
func NewEvaluator[T any](lfs []LF[T], ann nlp.Annotator, cacheSize int) (*Evaluator[T], error) {
	if err := ValidateNames(lfs); err != nil {
		return nil, err
	}
	if cacheSize <= 0 {
		cacheSize = DefaultAnnotationCacheSize
	}

	// The shared annotator: the caller's override (theirs to stop), else
	// whatever the set resolves to — none for a set with no NLP functions.
	e := &Evaluator[T]{lfs: append([]LF[T](nil), lfs...), metas: Metas(lfs)}
	if ann == nil {
		var err error
		if ann, e.stop, err = ResolveAnnotator(lfs); err != nil {
			return nil, err
		}
	}
	if ann != nil {
		cache, ok := ann.(*nlp.Cache)
		if !ok {
			var err error
			if cache, err = nlp.NewCache(ann, cacheSize); err != nil {
				e.stopAnnotator()
				return nil, err
			}
		}
		e.cache = cache
		for _, f := range e.lfs {
			if a, ok := f.(Annotatable); ok {
				a.SetAnnotator(cache)
			}
		}
	}
	return e, nil
}

// Setup readies every function's lifecycle (no-op for those without one).
func (e *Evaluator[T]) Setup(ctx context.Context) error { return SetupAll(ctx, e.lfs) }

// Teardown releases function lifecycles and stops the model server the
// evaluator launched (never an annotator the caller supplied). The
// evaluator's NLP functions cannot vote afterwards.
func (e *Evaluator[T]) Teardown(ctx context.Context) error {
	err := TeardownAll(ctx, e.lfs)
	e.stopAnnotator()
	return err
}

func (e *Evaluator[T]) stopAnnotator() {
	if e.stop != nil {
		e.stop()
	}
}

// Len returns the number of functions.
func (e *Evaluator[T]) Len() int { return len(e.lfs) }

// Metas returns function metadata in column order.
func (e *Evaluator[T]) Metas() []Meta { return e.metas }

// Names returns function names in column order.
func (e *Evaluator[T]) Names() []string { return Names(e.lfs) }

// LFs returns the evaluated functions in column order.
func (e *Evaluator[T]) LFs() []LF[T] { return append([]LF[T](nil), e.lfs...) }

// NLPCache returns the shared annotation cache, or nil when the set has no
// NLP functions.
func (e *Evaluator[T]) NLPCache() *nlp.Cache { return e.cache }

// VoteRow evaluates every function against one example — one row of the
// label matrix, the online /v1/label path. The context is checked once per
// row, not once per function: Err takes a lock.
func (e *Evaluator[T]) VoteRow(ctx context.Context, x T) ([]Label, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("lf: vote row: %w", err)
	}
	votes := make([]Label, len(e.lfs))
	for j, f := range e.lfs {
		v, err := f.Vote(ctx, x)
		if err != nil {
			return nil, err
		}
		if err := checkVote(e.metas[j], v); err != nil {
			return nil, err
		}
		votes[j] = v
	}
	return votes, nil
}

// VoteMatrix evaluates every function against a batch of examples, one
// column (VoteAll) at a time into a row-major byte buffer, and decodes it.
// Row i holds example i's votes in function order.
func (e *Evaluator[T]) VoteMatrix(ctx context.Context, xs []T) (*labelmodel.Matrix, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("lf: VoteMatrix over no examples")
	}
	n := len(e.lfs)
	buf := make([]byte, len(xs)*n)
	for j, f := range e.lfs {
		if _, err := VoteAll(ctx, f, xs, buf, n, j); err != nil {
			return nil, err
		}
	}
	mx := labelmodel.NewMatrix(len(xs), n)
	for i := range xs {
		labelmodel.DecodeVotes(mx.Row(i), buf[i*n:(i+1)*n]) // every byte was checked as VoteAll wrote it
	}
	return mx, nil
}
