// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that drybellvet's checkers are
// written against. The repository builds with a zero-dependency go.mod, so
// the real framework is off the table; this package keeps the same shape
// (Analyzer, Pass, Diagnostic, an analysistest-style golden runner) so the
// checkers could be ported to the upstream API mechanically if the project
// ever grows a dependency budget.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one drybellvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph help text.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
	// RunModule, set instead of Run, applies the check once to every
	// loaded package together, for rules about references between
	// packages. Each Pass still reports and suppresses on its own files.
	RunModule func([]*Pass) error
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path ("repro/internal/lf", or the
	// testdata directory name under analysistest).
	Path string
	// Report records one finding. The driver deduplicates and sorts.
	Report func(Diagnostic)

	suppressed map[*ast.File]map[int][]string
}

// Reportf formats and records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// MarkerPrefix starts every drybellvet suppression comment. A marker such as
// //drybellvet:ordered suppresses matching findings on its own line and on
// the line directly below it, so both trailing and standalone placements
// work:
//
//	for k := range m { // drybellvet:ordered — keys sorted below
//
//	//drybellvet:ordered — keys sorted below
//	for k := range m {
const MarkerPrefix = "drybellvet:"

// Suppressed reports whether a drybellvet suppression marker with the given
// name ("ordered", "tightloop", ...) covers the line of pos.
func (p *Pass) Suppressed(pos token.Pos, marker string) bool {
	if p.suppressed == nil {
		p.suppressed = make(map[*ast.File]map[int][]string)
	}
	position := p.Fset.Position(pos)
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename != position.Filename {
			continue
		}
		lines, ok := p.suppressed[f]
		if !ok {
			lines = markerLines(p.Fset, f)
			p.suppressed[f] = lines
		}
		for _, m := range lines[position.Line] {
			if m == marker {
				return true
			}
		}
		return false
	}
	return false
}

// markerLines maps each line covered by a suppression marker to the marker
// names that cover it (the marker's own line and the next line).
func markerLines(fset *token.FileSet, f *ast.File) map[int][]string {
	lines := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			for {
				i := strings.Index(text, MarkerPrefix)
				if i < 0 {
					break
				}
				name := text[i+len(MarkerPrefix):]
				text = name
				if j := strings.IndexFunc(name, func(r rune) bool {
					return !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
				}); j >= 0 {
					name = name[:j]
				}
				if name == "" {
					continue
				}
				line := fset.Position(c.Pos()).Line
				lines[line] = append(lines[line], name)
				lines[line+1] = append(lines[line+1], name)
			}
		}
	}
	return lines
}

// InScope reports whether the pass's package matches one of the scope
// entries: an exact import path, or a subtree written "prefix/...". An
// empty scope means every package is in scope — the analysistest default,
// where packages are named after testdata dirs.
func (p *Pass) InScope(scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if sub, ok := strings.CutSuffix(s, "/..."); ok {
			if p.Path == sub || strings.HasPrefix(p.Path, sub+"/") {
				return true
			}
		} else if p.Path == s {
			return true
		}
	}
	return false
}

// WalkWithStack traverses root like ast.Inspect but also hands fn the stack
// of enclosing nodes (outermost first, not including n itself). Returning
// false prunes the subtree.
func WalkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
