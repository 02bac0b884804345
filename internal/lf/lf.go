// Package lf is the batch execution engine behind the public labeling-
// function API (repro/pkg/drybell/lf): it adapts lf.LF values to one fused
// map-only MapReduce job over the distributed filesystem and assembles the
// votes into the label matrix Λ, persisted in the columnar vote store at
// "labels/votes".
//
// The paper's loose coupling — "labeling functions are independent
// executables that use a distributed filesystem to share data" (§5.4) —
// needs no second engine: an independent executable is an ExecuteContext over a
// one-function set, and each invocation appends its column to the shared
// store as a segment under a key of its own, next to the columns earlier or
// concurrent invocations wrote (publishSegment; cmd/lfrun is that
// executable).
//
// The authoring surface (templates, combinators, sets, analysis) lives in
// the public package; this package owns only execution.
package lf
