// Package lintutil holds the small type-resolution helpers the pcrlint
// analyzers share: resolving a call's callee through the types.Info maps,
// unwrapping receivers, and classifying types the invariants care about.
package lintutil

import (
	"go/ast"
	"go/types"
)

// Callee resolves the function or method a call expression invokes, or
// nil for calls through function-typed values, built-ins, and type
// conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Named returns the named type of t (through one pointer), or nil.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t is (a pointer to) the named type
// pkgpath.name.
func IsNamed(t types.Type, pkgpath, name string) bool {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgpath && n.Obj().Name() == name
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorType reports whether t implements the error interface.
func IsErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}

// Receiver returns the receiver type of a method, or nil for a plain
// function.
func Receiver(fn *types.Func) types.Type {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// WalkSkipFuncLits visits the nodes of root in depth-first order like
// ast.Inspect, but does not descend into function literals: the caller is
// reasoning about one function body's control flow, and a closure's body
// runs on somebody else's schedule.
func WalkSkipFuncLits(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return visit(n)
	})
}
