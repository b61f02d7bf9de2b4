// Package ctxloop enforces the repo's cancellation invariant: a loop
// that performs blocking I/O while a context.Context is in scope must
// observe that context on every iteration.
//
// The Scan, Loader, and fleet paths all promise prompt cancellation
// ("cancelling ctx stops it promptly with ctx.Err()" — pcr.Dataset.Scan),
// and the promise is only as good as the hottest loop that forgets to
// look at ctx between backend reads. The analyzer flags a for/range loop
// when all three hold:
//
//   - a context.Context is in scope (function parameter or local);
//   - the loop body performs blocking I/O: a method on a type
//     implementing a Backend or SampleReader interface, an
//     *http.Client round trip, or a raw channel send/receive outside a
//     select (a decode-pool submit);
//   - no iteration observes the context: no ctx.Err()/ctx.Done() call
//     and no call that is handed a context (delegation counts — the
//     callee owns cancellation then).
//
// Loops with no context in scope are exempt: they have nothing to
// check (the client's failover loop in internal/serve is the
// deliberate example — its cancellation budget is the http.Client
// timeout). A loop that must block uncancellably is opted out with
// `//lint:ignore ctxloop <why>`.
package ctxloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc:  "loops doing blocking I/O with a context.Context in scope must check ctx.Err()/ctx.Done() (or delegate ctx) every iteration",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, backends: backendInterfaces(pass.Pkg)}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Type, fd.Body, 0)
			}
		}
	}
	return nil
}

// backendInterfaces collects the I/O interfaces the invariant names —
// types called Backend or SampleReader — from the package itself and
// everything it imports.
func backendInterfaces(pkg *types.Package) []*types.Interface {
	var ifaces []*types.Interface
	scopes := []*types.Scope{pkg.Scope()}
	for _, imp := range pkg.Imports() {
		scopes = append(scopes, imp.Scope())
	}
	for _, scope := range scopes {
		for _, name := range []string{"Backend", "SampleReader"} {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			}
		}
	}
	return ifaces
}

type checker struct {
	pass     *analysis.Pass
	backends []*types.Interface
}

// checkFunc analyzes one function or closure body. outerCtxs counts the
// context-typed variables visible from enclosing functions; the walk
// adds this function's own parameters and locals as it encounters them,
// so a loop sees exactly the contexts declared before it.
func (c *checker) checkFunc(ft *ast.FuncType, body *ast.BlockStmt, outerCtxs int) {
	ctxs := outerCtxs + countCtxFields(c.pass, ft)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.checkFunc(n.Type, n.Body, ctxs)
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && c.isCtx(c.pass.TypeOf(id)) {
					if _, isDef := c.pass.TypesInfo.Defs[id]; isDef {
						ctxs++
					}
				}
			}
		case *ast.ForStmt:
			if ctxs > 0 {
				c.checkLoop(n, n.Body)
			}
		case *ast.RangeStmt:
			if ctxs > 0 {
				c.checkLoop(n, n.Body)
			}
		}
		return true
	})
}

// checkLoop reports the loop if its body does blocking I/O and never
// observes a context.
func (c *checker) checkLoop(loop ast.Node, body *ast.BlockStmt) {
	var io, checked bool
	lintutil.WalkSkipFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if c.observesCtx(n) {
				checked = true
			} else if c.isIOCall(n) {
				io = true
			}
		case *ast.SendStmt:
			if !inSelect(body, n.Pos()) {
				io = true
			}
		case *ast.UnaryExpr:
			// A blocking receive outside a select (inside one, the
			// ctx.Done() case — if present — is the check).
			if n.Op == token.ARROW && !inSelect(body, n.Pos()) {
				io = true
			}
		}
		return true
	})
	if io && !checked {
		c.pass.Report(loop.Pos(),
			"loop performs blocking I/O with a context.Context in scope but no iteration checks ctx.Err()/ctx.Done() or passes ctx on")
	}
}

// observesCtx reports whether the call checks or delegates a context:
// ctx.Err(), ctx.Done(), or any context-typed argument.
func (c *checker) observesCtx(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && c.isCtx(c.pass.TypeOf(sel.X)) {
			return true
		}
	}
	for _, arg := range call.Args {
		if c.isCtx(c.pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// isIOCall reports whether the call is blocking I/O under the
// invariant: an *http.Client round trip, a net/http package-level
// request helper, or a method of a Backend/SampleReader implementation.
func (c *checker) isIOCall(call *ast.CallExpr) bool {
	fn := lintutil.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	recv := lintutil.Receiver(fn)
	if recv != nil && lintutil.IsNamed(recv, "net/http", "Client") {
		return true
	}
	if recv == nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		switch fn.Name() {
		case "Get", "Head", "Post", "PostForm":
			return true
		}
	}
	if recv == nil {
		return false
	}
	for _, iface := range c.backends {
		if !hasMethod(iface, fn.Name()) {
			continue
		}
		if types.Implements(recv, iface) {
			return true
		}
		if p, ok := recv.(*types.Pointer); ok && types.Implements(p.Elem(), iface) {
			return true
		}
	}
	return false
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// countCtxFields counts context.Context parameters of a function type.
func countCtxFields(pass *analysis.Pass, ft *ast.FuncType) int {
	n := 0
	if ft.Params == nil {
		return 0
	}
	for _, f := range ft.Params.List {
		if isCtxType(pass.TypeOf(f.Type)) {
			if len(f.Names) == 0 {
				n++
			}
			for _, name := range f.Names {
				if name.Name != "_" {
					n++
				}
			}
		}
	}
	return n
}

func (c *checker) isCtx(t types.Type) bool { return isCtxType(t) }

func isCtxType(t types.Type) bool {
	return t != nil && lintutil.IsNamed(t, "context", "Context")
}

// inSelect reports whether pos falls inside a select statement within
// root: sends and receives there are already paired with their
// alternatives (a well-formed loop puts ctx.Done() among them, which the
// check detection sees independently).
func inSelect(root ast.Node, pos token.Pos) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok && sel.Pos() <= pos && pos < sel.End() {
			found = true
			return false
		}
		return !found
	})
	return found
}
