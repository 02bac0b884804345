// Package ctxflow enforces the cancellation contract:
//
//   - A function that receives a context.Context must thread it through: a
//     call to context.Background() or context.TODO() inside such a function
//     severs cancellation and is reported. Intentional detachment (a
//     background task that must outlive the request) is allowlisted with
//     //drybellvet:detached.
//   - In the engine packages (internal/lf, internal/mapreduce, pkg/drybell)
//     the per-record loops must stay cancelable: an
//     outermost loop that calls functions but never touches a context —
//     neither polling ctx.Err()/ctx.Done() nor passing ctx to a callee — is
//     reported. Bounded per-row/per-field loops with no cancellation point
//     are allowlisted with //drybellvet:tightloop.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/tools/drybellvet/analysis"
)

// LoopScope limits the per-record-loop rule to the engine packages named by
// the cancellation contract. The Background/TODO rule applies everywhere.
var LoopScope = []string{
	"repro/internal/lf",
	"repro/internal/mapreduce",
	"repro/pkg/drybell",
}

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "context must flow: no Background/TODO inside ctx functions; per-record engine loops must poll ctx",
	Run:  run,
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasContext reports whether the function type receives a context — either
// a context.Context parameter or a parameter whose (pointed-to) struct
// carries a context.Context field, like mapreduce.TaskContext.Ctx.
func hasContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isContextType(t) {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for j := 0; j < st.NumFields(); j++ {
				if isContextType(st.Field(j).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// carriesContext reports whether t is a (pointer-to) struct with a
// context.Context field — a cancellation carrier like *mapreduce.TaskContext.
func carriesContext(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for j := 0; j < st.NumFields(); j++ {
		if isContextType(st.Field(j).Type()) {
			return true
		}
	}
	return false
}

// usesContext reports whether the code inside n can observe cancellation:
// it mentions an expression of context.Context type (ctx.Err(), ctx.Done(),
// passing ctx to a callee, a TaskContext.Ctx selector) or passes a
// cancellation-carrying struct to a call.
func usesContext(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if tv, ok := pass.Info.Types[arg]; ok && tv.Type != nil && carriesContext(tv.Type) {
					found = true
					return false
				}
			}
		}
		if e, ok := m.(ast.Expr); ok {
			if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil && isContextType(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callsSomething reports whether the loop body invokes any real function — a
// loop that only shuffles locals, converts types, or calls builtins
// (len, cap, append, ...) cannot block and needs no poll.
func callsSomething(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pass.Info.Types[call.Fun]; ok {
			if tv.IsType() || tv.IsBuiltin() {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

func isBackgroundOrTODO(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	if obj.Name() == "Background" || obj.Name() == "TODO" {
		return obj.Name(), true
	}
	return "", false
}

func run(pass *analysis.Pass) error {
	loopsInScope := pass.InScope(LoopScope)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var sig *types.Signature
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					return true
				}
				body, sig = fn.Body, obj.Type().(*types.Signature)
			case *ast.FuncLit:
				tv, ok := pass.Info.Types[fn]
				if !ok {
					return true
				}
				s, ok := tv.Type.(*types.Signature)
				if !ok {
					return true
				}
				body, sig = fn.Body, s
			default:
				return true
			}
			if !hasContext(sig) {
				return true
			}
			checkCtxFunc(pass, body, loopsInScope)
			return true
		})
	}
	return nil
}

// checkCtxFunc applies both rules inside one context-receiving function
// body. Nested function literals are handled by their own visit (their
// signatures decide whether a context is available to them).
func checkCtxFunc(pass *analysis.Pass, body *ast.BlockStmt, loopsInScope bool) {
	analysis.WalkWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if name, ok := isBackgroundOrTODO(pass, nodeExpr(n)); ok {
			if !pass.Suppressed(n.Pos(), "detached") {
				pass.Reportf(n.Pos(), "context.%s() inside a function that already receives a context severs cancellation (pass the ctx or annotate //drybellvet:detached)", name)
			}
		}
		if !loopsInScope {
			return true
		}
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.RangeStmt:
			loopBody = l.Body
		case *ast.ForStmt:
			loopBody = l.Body
		default:
			return true
		}
		for _, outer := range stack {
			switch outer.(type) {
			case *ast.RangeStmt, *ast.ForStmt:
				return true // only outermost loops are charged with polling
			}
		}
		if !callsSomething(pass, loopBody) || usesContext(pass, loopBody) {
			return true
		}
		if pass.Suppressed(n.Pos(), "tightloop") {
			return true
		}
		pass.Reportf(n.Pos(), "per-record loop never polls ctx.Err() or passes ctx on; cancellation cannot reach it (poll ctx or annotate //drybellvet:tightloop)")
		return true
	})
}

// nodeExpr returns n as an expression, or nil.
func nodeExpr(n ast.Node) ast.Expr {
	e, _ := n.(ast.Expr)
	return e
}
