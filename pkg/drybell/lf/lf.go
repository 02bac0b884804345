// Package lf is the public labeling-function authoring API of the drybell
// SDK — the Go rendering of Snorkel DryBell's template library (paper §5.1,
// Figure 2). Engineers author weak-supervision sources against a small set
// of class templates and a few combinators; the system owns execution. The
// same LF values run on both engines:
//
//   - the batch executor (one fused MapReduce job per run, sharing data
//     over the distributed filesystem, §5.4), via drybell.Pipeline, and
//   - the online serving path (pkg/drybell/serve's /v1/label), via a shared
//     Evaluator.
//
// A batch, on either engine, is voted one function at a time by VoteAll,
// which writes each vote's byte into that function's column of a row-major
// vote buffer. Func and ModelFunc check their configuration once per batch
// there rather than once per example; every other function votes through
// Vote.
//
// The paper's five template classes map to:
//
//   - Func: the default pipeline (LabelingFunction) — a pure heuristic.
//   - NLPFunc: the model-server pipeline (NLPLabelingFunction) — its set
//     shares one NLP model server per compute node offline and one cached
//     annotator online, launched, injected and stopped by the engine.
//   - GraphFunc: the knowledge-graph pipeline — queries a kgraph.Client
//     through an injected LRU cache.
//   - ModelFunc: the model-based pipeline — thresholds an internal
//     classifier's score into votes.
//   - AggregateFunc: the aggregation-based pipeline — a two-pass function
//     whose first pass computes corpus-level statistics.
//
// Combinators (Threshold, Invert, FirstOf, All) derive new functions from
// existing ones, a Set names and validates an application's functions, and
// Analyze produces the Snorkel development-loop report (coverage, overlaps,
// conflicts, empirical accuracy against a dev set).
package lf

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/labelmodel"
	"repro/internal/nlp"
)

// Label is one labeling-function vote: Positive, Negative, or Abstain.
type Label = labelmodel.Label

// The three vote values. Abstain means "no opinion" and carries no signal.
const (
	Positive = labelmodel.Positive
	Negative = labelmodel.Negative
	Abstain  = labelmodel.Abstain
)

// Category buckets weak-supervision sources the way the paper's Figure 2
// does.
type Category string

// Figure 2 categories.
const (
	SourceHeuristic  Category = "source-heuristic"  // URL/source patterns, aggregate stats
	ContentHeuristic Category = "content-heuristic" // keywords and content patterns
	ModelBased       Category = "model-based"       // internal model predictions
	GraphBased       Category = "graph-based"       // knowledge/entity graphs
)

// Meta describes one labeling function.
type Meta struct {
	// Name is unique within an application; it names the function's column
	// in the vote artifact ("labels/votes") and in analysis reports.
	Name string
	// Category is the Figure 2 bucket.
	Category Category
	// Servable records whether the function reads only production-servable
	// signals. Non-servable functions are the ones cross-feature serving
	// exists for (§4, Table 3).
	Servable bool
}

// LF is one labeling function over example type T: metadata plus a vote. It
// is the single abstraction both execution engines consume — the batch
// executor evaluates a whole set inside each map task of one fused job, the
// online serving path evaluates the same values per request.
//
// Implementations may additionally implement Lifecycle (per-function
// resources), NodeLocal (per-compute-node state), CorpusFitter (two-pass
// corpus statistics), and AnnotatorSource/Annotatable (the set's shared NLP
// service, which the engine launches, injects and stops); engines discover
// these capabilities by interface assertion.
type LF[T any] interface {
	// LFMeta returns the function's metadata.
	LFMeta() Meta
	// Vote inspects one example and votes or abstains. Implementations must
	// return only valid labels; an error marks the example unlabelable by
	// this function and fails the surrounding evaluation.
	Vote(ctx context.Context, x T) (Label, error)
}

// Lifecycle is implemented by labeling functions holding resources of their
// own (GraphFunc's cached graph client). Engines call Setup before the first
// Vote and Teardown after the last. Both must be safe to call more than
// once. The NLP model server is not one of them: it belongs to the set, and
// the engine owns it (see AnnotatorSource).
type Lifecycle interface {
	Setup(ctx context.Context) error
	Teardown(ctx context.Context) error
}

// NodeLocal is implemented by labeling functions that maintain per-compute-
// node state — the paper's NLPLabelingFunction reaches a model server
// launched on every node of its MapReduce job. The batch executor calls
// ForNode once per task (simulated node), injects the task's NLP service
// into Annotatable instances, and runs Setup/Vote/Teardown on the returned
// instance; the online path uses the base value directly (one node).
type NodeLocal[T any] interface {
	ForNode() LF[T]
}

// Annotatable is implemented by labeling functions that consult an NLP
// annotator and accept an injected one — how both engines share a single
// model server across every NLP function in a set (see ResolveAnnotator).
type Annotatable interface {
	SetAnnotator(a nlp.Annotator)
}

// AnnotatorSource is implemented by labeling functions that can supply the
// NLP service for their set. NewAnnotator returns the service and the
// function that stops it: NLPFunc launches its configured model server, or —
// when a caller already injected an annotator — answers with that one and a
// nil stop, because an injected service is its injector's to stop. A source
// with nothing to offer (e.g. a combinator with no NLP members) returns a
// nil annotator; an error is a failed launch.
type AnnotatorSource interface {
	NewAnnotator() (ann nlp.Annotator, stop func(), err error)
}

// ResolveAnnotator finds the one NLP service a function set shares — the
// contract both engines hold: the online Evaluator resolves it once per set,
// the batch executor once per map task. Sources are asked in set order and
// the first that answers wins. A set with no NLP functions resolves to a nil
// annotator; stop is nil when there is nothing for the caller to stop.
func ResolveAnnotator[T any](lfs []LF[T]) (ann nlp.Annotator, stop func(), err error) {
	for _, f := range lfs {
		if src, ok := f.(AnnotatorSource); ok {
			if ann, stop, err = src.NewAnnotator(); ann != nil || err != nil {
				return ann, stop, err
			}
		}
	}
	return nil, nil, nil
}

// CorpusFitter is implemented by two-pass labeling functions whose votes
// depend on corpus-level statistics (AggregateFunc). The batch executor
// streams the staged corpus through FitCorpus before launching the vote
// job; the online path serves from a summary frozen offline. The iteration
// order of the corpus is unspecified.
type CorpusFitter[T any] interface {
	FitCorpus(ctx context.Context, corpus iter.Seq2[T, error]) error
	// Fitted reports whether the function already holds its statistics.
	Fitted() bool
}

// checkVote validates a vote on behalf of a template, naming the function.
func checkVote(meta Meta, v Label) error {
	if !v.Valid() {
		return fmt.Errorf("lf %s: invalid vote %d", meta.Name, int8(v))
	}
	return nil
}

// batchCtxStride bounds how many records a pass over many examples (a corpus
// fit, one function's column of votes) processes between context checks: Err
// takes a lock, and per record per function that was 7% of a 140-function run.
const batchCtxStride = 256

// VoteCounts is a column's vote histogram: Abstains, Positives, Negatives.
type VoteCounts = labelmodel.VoteCounts

// VoteAll evaluates one labeling function over many examples, in order, and
// writes vote i's byte to dst[i*stride+col] — one column of a row-major vote
// buffer with stride functions per row. It is the one vote loop behind the
// batch executor's map tasks and the online batch path (Evaluator.VoteRow is
// the per-row loop): votes are checked once, as they are written, and counted. Func and
// ModelFunc check their configuration once per call and vote without a Vote
// call per example; any other function votes through Vote. On error dst may
// hold a part of the column.
func VoteAll[T any](ctx context.Context, f LF[T], xs []T, dst []byte, stride, col int) (VoteCounts, error) {
	var c VoteCounts
	if len(xs) == 0 {
		return c, nil
	}
	meta := f.LFMeta()
	if col < 0 || col >= stride || len(dst) < (len(xs)-1)*stride+col+1 {
		return c, fmt.Errorf("lf %s: column %d of stride %d over %d examples does not fit %d bytes", meta.Name, col, stride, len(xs), len(dst))
	}
	var err error
	switch g := f.(type) {
	case *ModelFunc[T]:
		err = g.check()
	case *Func[T]:
		err = g.check()
	}
	if err != nil {
		return c, err
	}
	// The templates are called through their concrete types, so the vote
	// buffer stays on the stack.
	var buf [batchCtxStride]Label
	for lo := 0; lo < len(xs); lo += batchCtxStride {
		if err := ctx.Err(); err != nil {
			return c, fmt.Errorf("lf %s: %w", meta.Name, err)
		}
		chunk := xs[lo:min(lo+batchCtxStride, len(xs))]
		votes := buf[:len(chunk)]
		switch g := f.(type) {
		case *ModelFunc[T]:
			g.voteColumn(chunk, votes)
		case *Func[T]:
			g.voteColumn(chunk, votes)
		default:
			for i, x := range chunk {
				v, err := f.Vote(ctx, x)
				if err != nil {
					return c, err
				}
				votes[i] = v
			}
		}
		if i := c.PutColumn(dst[lo*stride:], stride, col, votes); i >= 0 {
			return c, checkVote(meta, votes[i])
		}
	}
	return c, nil
}

// ValidateNames checks that the set is non-empty and every function has a
// unique, non-empty name. Duplicate names would claim the same column of
// the vote artifact at "labels/votes" on the distributed filesystem.
func ValidateNames[T any](lfs []LF[T]) error {
	if len(lfs) == 0 {
		return fmt.Errorf("lf: no labeling functions")
	}
	seen := make(map[string]int, len(lfs))
	for j, f := range lfs {
		name := f.LFMeta().Name
		if name == "" {
			return fmt.Errorf("lf: labeling function at index %d has an empty name", j)
		}
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("lf: duplicate labeling function name %q (columns %d and %d); votes would overwrite each other at labels/%s",
				name, prev, j, name)
		}
		seen[name] = j
	}
	return nil
}

// SetupAll runs Setup on every function implementing Lifecycle, in order.
// On failure it tears down the functions already set up and returns the
// setup error.
func SetupAll[T any](ctx context.Context, lfs []LF[T]) error {
	for i, f := range lfs {
		lc, ok := f.(Lifecycle)
		if !ok {
			continue
		}
		if err := lc.Setup(ctx); err != nil {
			for k := i - 1; k >= 0; k-- {
				if prev, ok := lfs[k].(Lifecycle); ok {
					_ = prev.Teardown(ctx)
				}
			}
			return fmt.Errorf("lf %s: setup: %w", f.LFMeta().Name, err)
		}
	}
	return nil
}

// TeardownAll runs Teardown on every function implementing Lifecycle and
// returns the first error after attempting all of them.
func TeardownAll[T any](ctx context.Context, lfs []LF[T]) error {
	var first error
	for _, f := range lfs {
		if lc, ok := f.(Lifecycle); ok {
			if err := lc.Teardown(ctx); err != nil && first == nil {
				first = fmt.Errorf("lf %s: teardown: %w", f.LFMeta().Name, err)
			}
		}
	}
	return first
}

// Names returns function names in column order.
func Names[T any](lfs []LF[T]) []string {
	out := make([]string, len(lfs))
	for j, f := range lfs {
		out[j] = f.LFMeta().Name
	}
	return out
}

// Metas returns function metadata in column order.
func Metas[T any](lfs []LF[T]) []Meta {
	out := make([]Meta, len(lfs))
	for j, f := range lfs {
		out[j] = f.LFMeta()
	}
	return out
}

// Census counts functions per category — the Figure 2 histogram.
func Census[T any](lfs []LF[T]) map[Category]int {
	out := map[Category]int{}
	for _, f := range lfs {
		out[f.LFMeta().Category]++
	}
	return out
}

// ServableIndices returns the column indices of servable functions, the
// Table 3 ablation subset.
func ServableIndices[T any](lfs []LF[T]) []int {
	var out []int
	for j, f := range lfs {
		if f.LFMeta().Servable {
			out = append(out, j)
		}
	}
	return out
}
