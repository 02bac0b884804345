// Package testonly keeps the production tree to what production calls: an
// exported func or method under internal/ needs a reference from a non-test
// file of the module or of bench/. Code only tests call goes, moves into its
// package's tests, or carries //drybellvet:testapi — <reason> (a test double
// or an oracle other packages' tests share; on a type, it covers the
// methods). A method that satisfies an interface a loaded package can see
// is exempt: calls through the interface are invisible to the scan.
package testonly

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/drybellvet/analysis"
)

// Scope lists the packages whose exports need a production caller; pkg/...
// is the SDK's public API.
var Scope = []string{"repro/internal/..."}

var Analyzer = &analysis.Analyzer{
	Name:      "testonly",
	Doc:       "exported funcs and methods in internal/ must have a caller outside _test.go files",
	RunModule: run,
}

func run(passes []*analysis.Pass) error {
	used := make(map[string]bool)
	for _, pass := range passes {
		for id, obj := range pass.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && !isTest(pass, id) {
				used[key(fn)] = true
			}
		}
	}
	ifaces := visibleInterfaces(passes)
	for _, pass := range passes {
		for _, f := range pass.Files {
			if isTest(pass, f) {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if _, why, ok := strings.Cut(c.Text, analysis.MarkerPrefix+"testapi"); ok && strings.Trim(why, " \t—-:") == "" {
						pass.Reportf(c.Pos(), "//drybellvet:testapi needs a reason: //drybellvet:testapi — <why tests need this exported>")
					}
				}
			}
			if !pass.InScope(Scope) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || pass.Suppressed(fd.Name.Pos(), "testapi") {
					continue
				}
				fn := pass.Info.Defs[fd.Name].(*types.Func)
				if used[key(fn)] {
					continue
				}
				what := "func " + fn.Name()
				if r := recv(fn); r != nil {
					if pass.Suppressed(r.Obj().Pos(), "testapi") || satisfiesInterface(r, fn.Name(), ifaces) {
						continue
					}
					what = "method " + r.Obj().Name() + "." + fn.Name()
				}
				pass.Reportf(fd.Name.Pos(), "exported %s is referenced only from _test.go files: delete it, move it into a _test.go file, or mark it //drybellvet:testapi — <reason>", what)
			}
		}
	}
	return nil
}

func isTest(pass *analysis.Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.File(n.Pos()).Name(), "_test.go")
}

// recv returns a method's named receiver type, or nil.
func recv(fn *types.Func) *types.Named {
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return nil
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// key names a func or method the same way in every package that sees it,
// from source or from export data: package path, receiver, name.
func key(fn *types.Func) string {
	k := fn.Pkg().Path() + "."
	if r := recv(fn); r != nil {
		k += r.Obj().Name() + "."
	}
	return k + fn.Name()
}

// visibleInterfaces lists the interfaces the loaded packages can see: error
// and the named ones in their scopes and their imports' scopes, such as
// fmt.Stringer and http.RoundTripper.
func visibleInterfaces(passes []*analysis.Pass) []*types.Interface {
	var out []*types.Interface
	seen := make(map[any]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] && it.NumMethods() > 0 && it.IsMethodSet() {
			seen[it] = true
			out = append(out, it)
		}
	}
	var visit func(*types.Scope, []*types.Package)
	visit = func(s *types.Scope, imports []*types.Package) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, p := range imports {
			visit(p.Scope(), p.Imports())
		}
	}
	visit(types.Universe, nil)
	for _, pass := range passes {
		visit(pass.Pkg.Scope(), pass.Pkg.Imports())
	}
	return out
}

// satisfiesInterface reports whether method name of r is one r needs to
// implement an interface among ifaces. An interface may come from another
// package's view of the module, where the same named type is a distinct
// object, so signatures are compared as fully qualified text.
func satisfiesInterface(r *types.Named, name string, ifaces []*types.Interface) bool {
	methods := make(map[string]*types.Func)
	mset := types.NewMethodSet(types.NewPointer(r))
	for i := 0; i < mset.Len(); i++ {
		methods[mset.At(i).Obj().Name()] = mset.At(i).Obj().(*types.Func)
	}
	// errors.Is, As and Unwrap call these through interfaces local to
	// package errors, which no scope shows.
	if methods["Error"] != nil && (name == "Unwrap" || name == "Is" || name == "As") {
		return true
	}
next:
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, name); m == nil {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			want, have := it.Method(i), methods[it.Method(i).Name()]
			if have == nil || !want.Exported() && have.Pkg().Path() != want.Pkg().Path() || signature(have) != signature(want) {
				continue next
			}
		}
		return true
	}
	return false
}

// signature renders a method's parameter and result types, without the
// receiver or parameter names.
func signature(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
