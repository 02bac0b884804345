// Package dfspath enforces how DFS keys are built. The runtime's
// _attempts/, _manifest/, and _tasks/ layout — and every prefix-based
// List and cleanup over it — assumes forward-slash keys that are cleaned
// the way path.Join cleans them. Two constructs break that silently on
// other platforms or on untrimmed input:
//
//   - filepath.Join: uses the host separator. Only the local-disk DFS
//     backend may map keys to OS paths; such sites are allowlisted with
//     //drybellvet:ospath.
//   - "a" + "/" + "b" concatenation: skips cleaning, so doubled or
//     trailing slashes produce keys no reader ever lists. Slash-bearing
//     strings that are not DFS keys (counter names, list prefixes where a
//     trailing slash is load-bearing) are allowlisted with
//     //drybellvet:notapath.
package dfspath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/tools/drybellvet/analysis"
)

// Scope limits the check to the packages that mint or consume DFS keys.
var Scope = []string{
	"repro/internal/dfs",
	"repro/internal/mapreduce",
	"repro/internal/lf",
	"repro/internal/serving",
	"repro/pkg/drybell",
}

var Analyzer = &analysis.Analyzer{
	Name: "dfspath",
	Doc:  "DFS keys must be built with path.Join or the mapreduce path helpers, never filepath.Join or slash concatenation",
	Run:  run,
}

// slashLiteral reports whether e is a string literal that is, begins with,
// or ends with a slash — the signature of hand-rolled path concatenation.
func slashLiteral(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil || s == "" {
		return false
	}
	return s == "/" || strings.HasPrefix(s, "/") || strings.HasSuffix(s, "/")
}

func run(pass *analysis.Pass) error {
	if !pass.InScope(Scope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "path/filepath" {
					return true
				}
				if obj.Name() != "Join" && obj.Name() != "FromSlash" && obj.Name() != "ToSlash" {
					return true
				}
				if pass.Suppressed(n.Pos(), "ospath") {
					return true
				}
				pass.Reportf(n.Pos(), "filepath.%s uses the host separator; DFS keys are forward-slash — use path.Join (or annotate the OS-path site //drybellvet:ospath)", obj.Name())
			case *ast.BinaryExpr:
				if n.Op != token.ADD {
					return true
				}
				tv, ok := pass.Info.Types[n]
				if !ok || tv.Type == nil {
					return true
				}
				basic, ok := tv.Type.Underlying().(*types.Basic)
				if !ok || basic.Info()&types.IsString == 0 {
					return true
				}
				if !slashLiteral(n.X) && !slashLiteral(n.Y) {
					return true
				}
				if pass.Suppressed(n.Pos(), "notapath") {
					return true
				}
				pass.Reportf(n.Pos(), `DFS key built by string concatenation with "/"; use path.Join so keys are cleaned (or annotate //drybellvet:notapath)`)
			}
			return true
		})
	}
	return nil
}
