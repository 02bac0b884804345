// Package lf is the batch execution engine behind the public labeling-
// function API (repro/pkg/drybell/lf): it adapts lf.LF values to one fused
// map-only MapReduce job over the distributed filesystem and assembles the
// votes into the label matrix Λ, persisted in the columnar vote store at
// "labels/votes".
//
// The paper's loose coupling — "labeling functions are independent
// executables that use a distributed filesystem to share data" (§5.4) —
// needs no second engine: an independent executable is an Execute over a
// one-function set, and each invocation appends its column to the shared
// store as a segment under a key of its own, next to the columns earlier or
// concurrent invocations wrote (publishSegment; cmd/lfrun is that
// executable).
//
// The authoring surface (templates, combinators, sets, analysis) lives in
// the public package; this package owns only execution.
package lf

import lfapi "repro/pkg/drybell/lf"

// Meta describes one labeling function. It is the public API's Meta.
type Meta = lfapi.Meta

// Category buckets weak-supervision sources the way Figure 2 does.
type Category = lfapi.Category

// Figure 2 categories, re-exported from the public API.
const (
	SourceHeuristic  = lfapi.SourceHeuristic
	ContentHeuristic = lfapi.ContentHeuristic
	ModelBased       = lfapi.ModelBased
	GraphBased       = lfapi.GraphBased
)
