package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go %v: decode: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types imports from compiler export data
// located with `go list -export`. Paths not seen up front (transitive
// dependencies demanded lazily by the gc importer) are resolved with an
// extra go list call and cached.
type exportImporter struct {
	dir     string
	exports map[string]string
	gc      types.Importer
}

// NewExportImporter returns an importer that satisfies imports from
// compiler export data located with `go list -export`, run in dir. It backs
// both the repo-wide driver and the analysistest stdlib resolution.
func NewExportImporter(fset *token.FileSet, dir string) types.Importer {
	return newExportImporter(fset, dir)
}

func newExportImporter(fset *token.FileSet, dir string) *exportImporter {
	e := &exportImporter{dir: dir, exports: make(map[string]string)}
	e.gc = importer.ForCompiler(fset, "gc", e.lookup)
	return e
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := e.exports[path]
	if !ok {
		pkgs, err := goList(e.dir, "list", "-export", "-json=ImportPath,Export", path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			e.exports[p.ImportPath] = p.Export
		}
		file = e.exports[path]
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.gc.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load resolves the package patterns with the go tool and returns each
// matched package parsed and type-checked from source, with imports (module
// siblings included) satisfied from compiler export data — so a package
// that does not compile fails loudly here rather than being half-analyzed.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles"}, patterns...)
	targets, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	// One batched -export -deps walk warms the export map for the whole
	// dependency cone; the importer's lazy path stays as a fallback.
	imp := newExportImporter(fset, dir)
	depArgs := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
	if deps, err := goList(dir, depArgs...); err == nil {
		for _, d := range deps {
			if d.Export != "" {
				imp.exports[d.ImportPath] = d.Export
			}
		}
	}

	var loaded []*LoadedPackage
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("package %s: %s", t.ImportPath, t.Error.Err)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", t.ImportPath, err)
		}
		loaded = append(loaded, &LoadedPackage{
			Path:  t.ImportPath,
			Dir:   t.Dir,
			Files: files,
			Pkg:   pkg,
			Info:  info,
		})
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].Path < loaded[j].Path })
	return loaded, nil
}

// RunAnalyzers applies each analyzer to each package (a RunModule analyzer
// to all of them at once) and returns every finding sorted by position. The
// returned strings are ready to print: "file:line:col: analyzer: message".
func RunAnalyzers(fset *token.FileSet, pkgs []*LoadedPackage, analyzers []*Analyzer) ([]string, error) {
	type finding struct {
		pos token.Position
		msg string
	}
	var findings []finding
	for _, a := range analyzers {
		passes := make([]*Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Report: func(d Diagnostic) {
					findings = append(findings, finding{
						pos: fset.Position(d.Pos),
						msg: fmt.Sprintf("%s: %s", a.Name, d.Message),
					})
				},
			}
		}
		if a.RunModule != nil {
			if err := a.RunModule(passes); err != nil {
				return nil, fmt.Errorf("%s: %v", a.Name, err)
			}
			continue
		}
		for _, pass := range passes {
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pass.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.msg < b.msg
	})
	out := make([]string, 0, len(findings))
	seen := make(map[string]bool)
	for _, f := range findings {
		line := fmt.Sprintf("%s:%d:%d: %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.msg)
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	return out, nil
}
