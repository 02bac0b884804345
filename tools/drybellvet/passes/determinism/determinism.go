// Package determinism flags nondeterminism sources in the packages whose
// output must be byte-identical run over run: the artifact encoders, shard
// writers, report builders, and the distributed runtime (the PR 5
// exactly-once / byte-identical-labels contract).
//
// Three constructs are reported:
//
//   - `range` over a map: iteration order is randomized per run, so any
//     order-sensitive consumption of the loop body diverges. Proven-sorted
//     or order-insensitive loops are allowlisted with //drybellvet:ordered.
//   - time.Now: wall-clock values must never reach artifacts. Timing that
//     feeds only observability (durations in reports, lease deadlines) is
//     allowlisted with //drybellvet:wallclock.
//   - math/rand package-level functions (rand.Uint64, rand.Intn, ...): the
//     global generator is seeded randomly at process start. Explicitly
//     seeded generators (rand.New(rand.NewSource(seed))) are fine and not
//     flagged; a justified global use is allowlisted with
//     //drybellvet:wallclock.
package determinism

import (
	"go/ast"
	"go/types"

	"repro/tools/drybellvet/analysis"
)

// Scope limits the check to the packages that write artifacts, shards, and
// reports. Tests override it.
var Scope = []string{
	"repro/internal/labelmodel",
	"repro/internal/lf",
	"repro/internal/dfs",
	"repro/internal/mapreduce",
	"repro/internal/recordio",
	"repro/internal/serving",
	"repro/internal/experiments",
	"repro/internal/core",
	"repro/pkg/drybell",
	"repro/pkg/drybell/lf",
}

// randConstructors are the math/rand functions that build explicitly seeded
// generators; everything else at package level draws from the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flags map iteration, time.Now, and global math/rand in deterministic output paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pass.InScope(Scope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.Info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if pass.Suppressed(n.Pos(), "ordered") {
					return true
				}
				pass.Reportf(n.Pos(), "range over map has nondeterministic iteration order on a deterministic output path (sort the keys or annotate //drybellvet:ordered)")
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				sig, ok := obj.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					return true // methods (e.g. on a seeded *rand.Rand) are fine
				}
				switch obj.Pkg().Path() {
				case "time":
					if obj.Name() == "Now" && !pass.Suppressed(n.Pos(), "wallclock") {
						pass.Reportf(n.Pos(), "time.Now on a deterministic output path (derive from inputs or annotate //drybellvet:wallclock)")
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[obj.Name()] && !pass.Suppressed(n.Pos(), "wallclock") {
						pass.Reportf(n.Pos(), "global math/rand.%s is seeded per process; use a seeded rand.New(rand.NewSource(seed)) or annotate //drybellvet:wallclock", obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}
