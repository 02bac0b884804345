// Package analysistest runs a drybellvet analyzer over golden packages under
// a testdata/src directory and compares its findings against `// want "re"`
// comments, mirroring the golang.org/x/tools/go/analysis/analysistest
// convention:
//
//	for k := range m { // want `range over map`
//
// A line that already carries a // comment (a drybellvet marker) takes its
// want as a /* want "re" */ block comment before it. Each want comment holds
// one or more back-quoted or double-quoted regular expressions, all of which
// must be matched by diagnostics reported on that line. Diagnostics on lines
// without a matching want, and wants without a matching diagnostic, fail the
// test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/tools/drybellvet/analysis"
)

// testImporter resolves imports for testdata packages: paths with a
// directory under testdata/src are type-checked from source (recursively),
// everything else comes from compiler export data via the go tool.
type testImporter struct {
	srcRoot string
	fset    *token.FileSet
	cache   map[string]*loadedTestPkg
	std     types.Importer
}

type loadedTestPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

func (imp *testImporter) Import(path string) (*types.Package, error) {
	p, err := imp.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (imp *testImporter) load(path string) (*loadedTestPkg, error) {
	if p, ok := imp.cache[path]; ok {
		return p, p.err
	}
	dir := filepath.Join(imp.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		pkg, err := imp.std.Import(path)
		if err != nil {
			return nil, err
		}
		p := &loadedTestPkg{path: path, pkg: pkg}
		imp.cache[path] = p
		return p, nil
	}
	p := &loadedTestPkg{path: path}
	imp.cache[path] = p // pre-register: testdata packages must not cycle
	entries, err := os.ReadDir(dir)
	if err != nil {
		p.err = err
		return p, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(imp.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			p.err = err
			return p, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		p.err = fmt.Errorf("no Go files in %s", dir)
		return p, p.err
	}
	p.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	p.pkg, p.err = conf.Check(path, imp.fset, p.files, p.info)
	return p, p.err
}

// wantRe extracts the quoted patterns of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run applies the analyzer to the named packages under dir/src (a RunModule
// analyzer to all of them at once) and checks every diagnostic against the
// packages' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &testImporter{
		srcRoot: filepath.Join(dir, "src"),
		fset:    fset,
		cache:   make(map[string]*loadedTestPkg),
		std:     analysis.NewExportImporter(fset, "."),
	}

	type diag struct {
		file    string
		line    int
		msg     string
		matched bool
	}
	var diags []diag
	var wants []*expectation

	var passes []*analysis.Pass
	for _, path := range pkgPaths {
		p, err := imp.load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		passes = append(passes, &analysis.Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    p.files,
			Pkg:      p.pkg,
			Info:     p.info,
			Path:     path,
			Report: func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				diags = append(diags, diag{file: pos.Filename, line: pos.Line, msg: d.Message})
			},
		})
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if text == c.Text { // a /* */ comment, for lines that carry a // marker
						text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
					}
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}

	if a.RunModule != nil {
		if err := a.RunModule(passes); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	} else {
		for _, pass := range passes {
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pass.Path, err)
			}
		}
	}

	for i := range diags {
		d := &diags[i]
		for _, w := range wants {
			if !w.matched && w.file == d.file && w.line == d.line && w.pattern.MatchString(d.msg) {
				w.matched = true
				d.matched = true
				break
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].file != diags[j].file {
			return diags[i].file < diags[j].file
		}
		return diags[i].line < diags[j].line
	})
	for _, d := range diags {
		if !d.matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.file, d.line, d.msg)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.pattern)
		}
	}
}
