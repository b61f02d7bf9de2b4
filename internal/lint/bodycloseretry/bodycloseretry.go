// Package bodycloseretry enforces the repo's HTTP response hygiene in
// and around retry loops.
//
// The serve.ClusterClient read path retries, hedges, and fails
// over: the same function can hold several *http.Response values in
// flight, and a body left open (or closed undrained) leaks a connection
// per retry — precisely when the server is struggling and connection
// churn hurts the most. The analyzer checks every *http.Response
// obtained from a call:
//
//   - the response must be resolved on some path: its Body closed,
//     handed to another function (a drain helper, or any callee that
//     takes the response or its body — ownership transfers), or
//     returned to the caller;
//   - a response acquired inside a for loop must not rely on defer for
//     cleanup: defers run at function exit, so a retry loop's bodies
//     all stay open until the last attempt returns;
//   - a direct (non-deferred) Body.Close with no earlier read or drain
//     of the body — the early `continue`/`return` path after a bad
//     status — wastes the connection: the transport can only reuse it
//     once the body is drained. Read or drain (io.Copy(io.Discard, ...)
//     or the package's drain helper) before closing.
//
// A deliberate exception is opted out with
// `//lint:ignore bodycloseretry <why>`.
package bodycloseretry

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "bodycloseretry",
	Doc:  "*http.Response bodies must be drained and closed on every path, without defer inside retry loops",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
		// Closures are separate ownership domains: a response acquired
		// in a goroutine's body must be resolved there.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkFunc(pass, fl.Body)
			}
			return true
		})
	}
	return nil
}

// A respVar tracks one *http.Response-typed variable through a function
// body.
type respVar struct {
	obj     *types.Var
	pos     token.Pos // acquisition site
	loops   []ast.Node
	closes  []useSite // v.Body.Close() calls
	reads   []useSite // v.Body consumed (ReadAll, Copy, decoder, ...)
	handoff []useSite // v or v.Body passed to another function
	ret     bool      // v or v.Body returned
}

type useSite struct {
	pos      token.Pos
	deferred bool
	loops    []ast.Node
}

// checkFunc analyzes one function body (closures excluded — they are
// checked as their own functions).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	vars := make(map[*types.Var]*respVar)

	// Pass 1: find acquisitions — assignments whose RHS call yields an
	// *http.Response — with their enclosing loops.
	var walk func(n ast.Node, loops []ast.Node, deferred bool)
	record := func(id *ast.Ident, loops []ast.Node) {
		obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			if obj, ok = pass.TypesInfo.Uses[id].(*types.Var); !ok {
				return
			}
		}
		if !isResponsePtr(obj.Type()) {
			return
		}
		if _, seen := vars[obj]; !seen {
			vars[obj] = &respVar{obj: obj, pos: id.Pos(), loops: loops}
		}
	}
	walk = func(n ast.Node, loops []ast.Node, deferred bool) {
		lintutil.WalkSkipFuncLits(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m != n {
					walk(m, append(append([]ast.Node{}, loops...), m), deferred)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					walk(m, append(append([]ast.Node{}, loops...), m), deferred)
					return false
				}
			case *ast.AssignStmt:
				if callYieldsResponse(pass, m.Rhs) {
					for _, lhs := range m.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							record(id, loops)
						}
					}
				}
			}
			return true
		})
	}
	walk(body, nil, false)
	if len(vars) == 0 {
		return
	}

	// Pass 2: classify every use of each response variable.
	var uses func(n ast.Node, loops []ast.Node, deferred bool)
	uses = func(n ast.Node, loops []ast.Node, deferred bool) {
		lintutil.WalkSkipFuncLits(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m != n {
					uses(m, append(append([]ast.Node{}, loops...), m), deferred)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					uses(m, append(append([]ast.Node{}, loops...), m), deferred)
					return false
				}
			case *ast.DeferStmt:
				uses(m.Call, loops, true)
				return false
			case *ast.CallExpr:
				classifyCall(pass, vars, m, loops, deferred)
			case *ast.ReturnStmt:
				for _, res := range m.Results {
					if rv := respOf(pass, vars, res); rv != nil {
						rv.ret = true
					}
					if rv := respBodyOf(pass, vars, res); rv != nil {
						rv.ret = true
					}
				}
			}
			return true
		})
	}
	uses(body, nil, false)

	for _, rv := range vars {
		report(pass, rv)
	}
}

func report(pass *analysis.Pass, rv *respVar) {
	resolved := rv.ret || len(rv.closes) > 0 || len(rv.handoff) > 0
	if !resolved {
		pass.Reportf(rv.pos,
			"%s's Body is never closed (and the response is neither returned nor handed off); drain and close it on every path", rv.obj.Name())
		return
	}
	// Acquired in a loop: some non-deferred close/handoff must live in
	// that same loop, or every iteration stacks an open body until the
	// function returns.
	if len(rv.loops) > 0 {
		loop := rv.loops[len(rv.loops)-1]
		ok := rv.ret // returning from inside the loop hands the body off
		for _, sites := range [][]useSite{rv.closes, rv.handoff} {
			for _, s := range sites {
				if !s.deferred && containsLoop(s.loops, loop) {
					ok = true
				}
			}
		}
		if !ok {
			pass.Reportf(rv.pos,
				"%s is acquired inside a retry loop but only resolved by defer, which runs at function exit; close or hand it off before the next iteration", rv.obj.Name())
		}
	}
	// Direct closes need a preceding drain/read, or the connection is
	// torn down instead of reused.
	for _, cl := range rv.closes {
		if cl.deferred {
			continue
		}
		drained := false
		for _, rd := range append(rv.reads, rv.handoff...) {
			if rd.pos < cl.pos {
				drained = true
			}
		}
		if !drained {
			pass.Reportf(cl.pos,
				"%s.Body is closed without being drained; read it or io.Copy(io.Discard, ...) first so the connection can be reused", rv.obj.Name())
		}
	}
}

// classifyCall files one call expression under close/read/handoff for
// any response variable it touches.
func classifyCall(pass *analysis.Pass, vars map[*types.Var]*respVar, call *ast.CallExpr, loops []ast.Node, deferred bool) {
	site := useSite{pos: call.Pos(), deferred: deferred, loops: loops}
	// v.Body.Close()
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
		if rv := respBodyOf(pass, vars, sel.X); rv != nil {
			rv.closes = append(rv.closes, site)
			return
		}
	}
	// v.Body.Read(...) etc. — a method call on the body is a read.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if rv := respBodyOf(pass, vars, sel.X); rv != nil {
			rv.reads = append(rv.reads, site)
			return
		}
	}
	// v or v.Body as an argument: reading (io.ReadAll(v.Body),
	// json.NewDecoder(v.Body), ...) and ownership transfer
	// (drainClose(v), handle(v)) are both "somebody consumes it".
	for _, arg := range call.Args {
		if rv := respBodyOf(pass, vars, arg); rv != nil {
			rv.reads = append(rv.reads, site)
			rv.handoff = append(rv.handoff, site)
		} else if rv := respOf(pass, vars, arg); rv != nil {
			rv.handoff = append(rv.handoff, site)
		}
	}
}

// respOf resolves an expression to a tracked response variable.
func respOf(pass *analysis.Pass, vars map[*types.Var]*respVar, e ast.Expr) *respVar {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return vars[obj]
}

// respBodyOf resolves v.Body to v's tracked response variable.
func respBodyOf(pass *analysis.Pass, vars map[*types.Var]*respVar, e ast.Expr) *respVar {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Body" {
		return nil
	}
	return respOf(pass, vars, sel.X)
}

func callYieldsResponse(pass *analysis.Pass, rhs []ast.Expr) bool {
	for _, e := range rhs {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			continue
		}
		switch t := pass.TypeOf(call).(type) {
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				if isResponsePtr(t.At(i).Type()) {
					return true
				}
			}
		default:
			if isResponsePtr(t) {
				return true
			}
		}
	}
	return false
}

func isResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && lintutil.IsNamed(p.Elem(), "net/http", "Response")
}

// containsLoop reports whether the site's loop stack includes loop.
func containsLoop(stack []ast.Node, loop ast.Node) bool {
	for _, l := range stack {
		if l == loop {
			return true
		}
	}
	return false
}
