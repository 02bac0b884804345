// Package voteenc guards the vote byte encoding. A labelmodel.Label is a
// three-valued int8 (−1, 0, +1); everything persisted — columnar vote
// shards, per-function recordio shards, checkpointed map output — stores it
// as exactly one byte, and readers reject anything else. A raw byte(label)
// or uint8(label) cast silently truncates an out-of-range value into a
// different legal-looking vote, so every conversion from Label to an
// integer type must go through a checked encoder (labelmodel.EncodeVotes or
// labelmodel.VoteCounts.PutColumn). The encoders' own internals are
// allowlisted with //drybellvet:rawvote.
package voteenc

import (
	"go/ast"
	"go/types"

	"repro/tools/drybellvet/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "voteenc",
	Doc:  "conversions from labelmodel.Label to integer bytes must go through the checked vote encoder",
	Run:  run,
}

// isLabelType reports whether t (after unwrapping aliases) is the named
// type Label of a package named labelmodel — matching both the real
// repro/internal/labelmodel.Label and the analysistest fixture.
func isLabelType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Label" && obj.Pkg() != nil && obj.Pkg().Name() == "labelmodel"
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion is a CallExpr whose Fun denotes a type.
			tv, ok := pass.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst, ok := tv.Type.Underlying().(*types.Basic)
			if !ok || dst.Info()&types.IsInteger == 0 {
				return true
			}
			argType, ok := pass.Info.Types[call.Args[0]]
			if !ok || argType.Type == nil || !isLabelType(argType.Type) {
				return true
			}
			if pass.Suppressed(call.Pos(), "rawvote") {
				return true
			}
			pass.Reportf(call.Pos(), "raw %s(label) cast bypasses the checked vote encoder; use labelmodel.EncodeVotes/VoteCounts.PutColumn (or annotate the encoder internals //drybellvet:rawvote)", dst.Name())
			return true
		})
	}
	return nil
}
