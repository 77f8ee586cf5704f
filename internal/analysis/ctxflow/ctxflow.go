// Package ctxflow enforces the repo's cancellation discipline: when a
// context.Context is in scope it must reach every context-accepting
// callee, instead of being dropped or re-rooted. Three rules:
//
//   - rule A (no re-rooting): calling context.Background() or
//     context.TODO() while a context is in scope — a parameter, or a
//     context field on the method's receiver — severs the cancellation
//     chain. There is no sanctioned exception: a function that needs an
//     uncancellable root takes no context and has none in scope.
//   - rule B (no dropping): with a context in scope, calling Foo(...)
//     when a FooContext sibling exists (same package for functions, same
//     receiver type for methods, context first parameter) silently
//     discards cancellation — a draining daemon cannot stop the work.
//     This is the shape that made instance builds and breaker probes
//     uncancellable in the serving layer.
//   - rule C (no storing): writing a context.Context into a struct field
//     (composite literal entry or field assignment) detaches its
//     lifetime from the call that created it. Stored lifetime scopes are
//     legitimate in a few audited places — each carries a reasoned
//     lint:ignore.
//
// Function literals inherit the enclosing scope's context unless they
// bind their own context parameter. Test files are exempt.
//
// Known unsoundness is documented in DESIGN.md §12: rule B only sees
// statically resolvable callees, and rule C does not track contexts
// laundered through interfaces or maps.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"lcrb/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "require in-scope contexts to reach context-accepting callees; forbid re-rooting and struct storage",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body, scopeContext(pass, fd))
		}
	}
	return nil
}

// checkBody walks one function body. ctxName is the in-scope context's
// printed form ("" when none). Function literals recurse with their own
// context parameter when they bind one.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := ctxName
			if name := paramContext(pass, n.Type); name != "" {
				inner = name
			}
			checkBody(pass, n.Body, inner)
			return false
		case *ast.CallExpr:
			if which := rootCallName(pass, n); which != "" && ctxName != "" {
				pass.Reportf(n.Pos(), "context.%s() re-roots cancellation although %s is in scope; thread %s instead", which, ctxName, ctxName)
			}
			if ctxName != "" {
				checkDroppedContext(pass, n, ctxName)
			}
		case *ast.CompositeLit:
			checkCompositeStore(pass, n)
		case *ast.AssignStmt:
			checkFieldStore(pass, n)
		}
		return true
	})
}

// scopeContext names the context in scope inside fd: the first
// context.Context parameter, else a context-typed field on the receiver.
func scopeContext(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if name := paramContext(pass, fd.Type); name != "" {
		return name
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	recvName := fd.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return ""
	}
	obj := pass.TypesInfo.ObjectOf(fd.Recv.List[0].Names[0])
	if obj == nil {
		return ""
	}
	t := obj.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return recvName + "." + st.Field(i).Name()
		}
	}
	return ""
}

// paramContext returns the name of ft's first context.Context parameter.
func paramContext(pass *analysis.Pass, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, f := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range f.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// rootCallName matches call as context.Background() or context.TODO(),
// returning the function name ("" otherwise).
func rootCallName(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// checkDroppedContext flags a call to Foo when a FooContext sibling with a
// context first parameter exists: with ctxName in scope the plain variant
// silently drops cancellation.
func checkDroppedContext(pass *analysis.Pass, call *ast.CallExpr, ctxName string) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	name := callee.Name()
	if strings.HasSuffix(name, "Context") {
		return
	}
	if callee.Pkg().Path() == "context" {
		return
	}
	sibling := findSibling(callee)
	if sibling == nil || !firstParamIsContext(sibling) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s drops %s; call %sContext and pass it", name, ctxName, name)
}

// findSibling locates the FooContext counterpart of callee: a method on
// the same receiver type, or a function in the same package.
func findSibling(callee *types.Func) *types.Func {
	want := callee.Name() + "Context"
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, callee.Pkg(), want)
		fn, _ := obj.(*types.Func)
		return fn
	}
	fn, _ := callee.Pkg().Scope().Lookup(want).(*types.Func)
	return fn
}

// firstParamIsContext reports whether fn's first parameter is a
// context.Context.
func firstParamIsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	return params.Len() > 0 && isContextType(params.At(0).Type())
}

// checkCompositeStore flags context-typed values stored in struct
// composite literals (rule C).
func checkCompositeStore(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range lit.Elts {
		value := elt
		field := ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
		}
		vt, ok := pass.TypesInfo.Types[value]
		if !ok || !isContextType(vt.Type) {
			continue
		}
		if field == "" {
			field = "(positional)"
		}
		pass.Reportf(elt.Pos(), "context stored in struct field %s; pass it per call instead of pinning a lifetime", field)
	}
}

// checkFieldStore flags assignments of context-typed values into struct
// fields (rule C).
func checkFieldStore(pass *analysis.Pass, assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || i >= len(assign.Rhs) {
			continue
		}
		if _, isField := pass.TypesInfo.Selections[sel]; !isField {
			continue
		}
		vt, ok := pass.TypesInfo.Types[assign.Rhs[i]]
		if !ok || !isContextType(vt.Type) {
			continue
		}
		pass.Reportf(assign.Pos(), "context stored in struct field %s; pass it per call instead of pinning a lifetime", types.ExprString(sel))
	}
}

// calleeFunc resolves a call's target to a declared function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.ObjectOf(id).(*types.Func)
	return fn
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
