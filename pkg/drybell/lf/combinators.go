package lf

import (
	"context"
	"fmt"
	"iter"
	"strings"

	"repro/internal/nlp"
)

// Threshold builds a one- or two-sided threshold function over a score —
// the lightest model-based instantiation, for "a large set of existing
// heuristic classifiers" (§3.3). Use NeverPositive / NeverNegative to
// disable a side.
func Threshold[T any](meta Meta, score func(T) float64, positiveAbove, negativeBelow float64) *ModelFunc[T] {
	return &ModelFunc[T]{Meta: meta, Score: score, PositiveAbove: positiveAbove, NegativeBelow: negativeBelow}
}

// derived is a labeling function computed from member functions' votes. It
// forwards every engine capability — lifecycle, annotator injection,
// corpus fitting, per-node instancing — to its members, so a
// combined function runs anywhere its members do.
type derived[T any] struct {
	meta    Meta
	members []LF[T]
	// combine folds the members' votes (in member order) into one.
	combine func(votes []Label) Label
}

// LFMeta implements LF.
func (d *derived[T]) LFMeta() Meta { return d.meta }

// Vote implements LF.
func (d *derived[T]) Vote(ctx context.Context, x T) (Label, error) {
	votes := make([]Label, len(d.members))
	for i, m := range d.members {
		v, err := m.Vote(ctx, x)
		if err != nil {
			return 0, fmt.Errorf("lf %s: member %s: %w", d.meta.Name, m.LFMeta().Name, err)
		}
		votes[i] = v
	}
	v := d.combine(votes)
	return v, checkVote(d.meta, v)
}

// Setup implements Lifecycle by setting up every member that has one.
func (d *derived[T]) Setup(ctx context.Context) error { return SetupAll(ctx, d.members) }

// Teardown implements Lifecycle.
func (d *derived[T]) Teardown(ctx context.Context) error { return TeardownAll(ctx, d.members) }

// SetAnnotator implements Annotatable by forwarding to every member.
func (d *derived[T]) SetAnnotator(a nlp.Annotator) {
	for _, m := range d.members {
		if ann, ok := m.(Annotatable); ok {
			ann.SetAnnotator(a)
		}
	}
}

// NewAnnotator implements AnnotatorSource via the first member that can.
func (d *derived[T]) NewAnnotator() (nlp.Annotator, func(), error) {
	return ResolveAnnotator(d.members)
}

// FitCorpus implements CorpusFitter by fitting every member that needs it.
// The corpus sequence is iterated once per fitting member.
func (d *derived[T]) FitCorpus(ctx context.Context, corpus iter.Seq2[T, error]) error {
	for _, m := range d.members {
		if cf, ok := m.(CorpusFitter[T]); ok && !cf.Fitted() {
			if err := cf.FitCorpus(ctx, corpus); err != nil {
				return fmt.Errorf("lf %s: %w", d.meta.Name, err)
			}
		}
	}
	return nil
}

// Fitted implements CorpusFitter: true when every fitting member is fitted.
func (d *derived[T]) Fitted() bool {
	for _, m := range d.members {
		if cf, ok := m.(CorpusFitter[T]); ok && !cf.Fitted() {
			return false
		}
	}
	return true
}

// ForNode implements NodeLocal when any member does: the node instance
// combines per-node instances of the node-local members.
func (d *derived[T]) ForNode() LF[T] {
	members := make([]LF[T], len(d.members))
	for i, m := range d.members {
		if nl, ok := m.(NodeLocal[T]); ok {
			members[i] = nl.ForNode()
		} else {
			members[i] = m
		}
	}
	return &derived[T]{meta: d.meta, members: members, combine: d.combine}
}

// allServable reports whether every member reads only servable signals.
func allServable[T any](members []LF[T]) bool {
	for _, m := range members {
		if !m.LFMeta().Servable {
			return false
		}
	}
	return true
}

// Invert flips a function's polarity: Positive becomes Negative and vice
// versa; abstains stay abstains. The derived function is named
// "not_<inner>" and inherits the inner category and servability.
func Invert[T any](inner LF[T]) LF[T] {
	im := inner.LFMeta()
	return &derived[T]{
		meta:    Meta{Name: "not_" + im.Name, Category: im.Category, Servable: im.Servable},
		members: []LF[T]{inner},
		combine: func(votes []Label) Label {
			switch votes[0] {
			case Positive:
				return Negative
			case Negative:
				return Positive
			default:
				return Abstain
			}
		},
	}
}

// FirstOf chains members as fallbacks: the vote is the first non-abstain
// vote in member order — "try the precise source first, fall back to the
// broad one". With no explicit name, the function is named
// "first_of(<members>)"; servability is the conjunction of the members'.
func FirstOf[T any](meta Meta, members ...LF[T]) (LF[T], error) {
	return newEnsemble(meta, "first_of", members, func(votes []Label) Label {
		for _, v := range votes {
			if v != Abstain {
				return v
			}
		}
		return Abstain
	})
}

// All is the unanimity ensemble: it votes v only when at least one member
// votes and every non-abstaining member votes v; any disagreement (or full
// abstention) abstains. It trades coverage for precision.
func All[T any](meta Meta, members ...LF[T]) (LF[T], error) {
	return newEnsemble(meta, "all", members, func(votes []Label) Label {
		out := Abstain
		for _, v := range votes {
			if v == Abstain {
				continue
			}
			if out == Abstain {
				out = v
			} else if out != v {
				return Abstain
			}
		}
		return out
	})
}

// newEnsemble validates members and fills meta defaults for a combinator.
func newEnsemble[T any](meta Meta, kind string, members []LF[T], combine func([]Label) Label) (LF[T], error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("lf: %s ensemble %q has no members", kind, meta.Name)
	}
	if meta.Name == "" {
		names := make([]string, len(members))
		for i, m := range members {
			names[i] = m.LFMeta().Name
		}
		meta.Name = kind + "(" + strings.Join(names, ",") + ")"
	}
	if meta.Category == "" {
		meta.Category = members[0].LFMeta().Category
	}
	if !allServable(members) {
		meta.Servable = false
	}
	return &derived[T]{meta: meta, members: members, combine: combine}, nil
}
