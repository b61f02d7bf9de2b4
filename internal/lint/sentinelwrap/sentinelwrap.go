// Package sentinelwrap enforces the repo's error-identity invariant.
//
// The pcr facade promises callers that errors.Is keeps working across
// every layer: structural damage is pcr.ErrCorrupt, closed handles are
// pcr.ErrClosed, and so on (see DESIGN.md, "Static analysis"). That
// promise only holds while three conventions do:
//
//  1. No package re-mints a facade sentinel. A fresh
//     `var ErrCorrupt = errors.New(...)` outside the sentinel's home
//     package creates an error that *looks* like the contract but never
//     matches it. Sentinels are aliased (`var ErrCorrupt =
//     core.ErrCorrupt`) or wrapped, never re-declared.
//  2. The facade packages (pcr, internal/core) never create anonymous
//     errors inside function bodies: an inline errors.New can't be
//     matched by any caller. Errors there are sentinels, or wrap one
//     (or another error) with %w.
//  3. An error formatted into fmt.Errorf rides %w, not %v/%s: formatting
//     an error as a plain string severs the unwrap chain that the
//     callers' errors.Is dispatch walks.
//
// A deliberate exception — e.g. a domain package keeping its own private
// sentinel namespace that a boundary maps onto the facade's — is opted
// out with `//lint:ignore sentinelwrap <why>`.
package sentinelwrap

import (
	"go/ast"
	"go/constant"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "sentinelwrap",
	Doc:  "errors crossing the pcr facade must wrap the exported sentinels; no fresh errors.New may shadow one, and error arguments to fmt.Errorf must use %w",
	Run:  run,
}

// sentinelHome maps each facade sentinel to the package (by name) that
// owns it. Only the home may declare the name with a fresh errors.New.
var sentinelHome = map[string]string{
	"ErrCorrupt":       "core",
	"ErrClosed":        "pcr",
	"ErrNoSuchQuality": "pcr",
}

// facadePackages are the packages (by name) where rule 2 — no inline
// errors.New in function bodies — applies.
var facadePackages = map[string]bool{"pcr": true, "core": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				checkShadow(pass, d)
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if facadePackages[pass.Pkg.Name()] {
					checkInlineNew(pass, d.Body)
				}
				checkErrorfWrap(pass, d.Body)
			}
		}
	}
	return nil
}

// checkShadow flags a package-level `var ErrX = errors.New(...)` whose
// name is a facade sentinel owned by another package (rule 1).
func checkShadow(pass *analysis.Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			home, isSentinel := sentinelHome[name.Name]
			if !isSentinel || pass.Pkg.Name() == home || i >= len(vs.Values) {
				continue
			}
			call, ok := vs.Values[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn := lintutil.Callee(pass.TypesInfo, call); fn != nil && fn.FullName() == "errors.New" {
				pass.Reportf(name.Pos(),
					"%s shadows the facade sentinel with a fresh errors.New; alias the %s package's sentinel or wrap it with %%w",
					name.Name, home)
			}
		}
	}
}

// checkInlineNew flags errors.New calls inside facade function bodies
// (rule 2).
func checkInlineNew(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := lintutil.Callee(pass.TypesInfo, call); fn != nil && fn.FullName() == "errors.New" {
			pass.Report(call.Pos(),
				"inline errors.New creates an error no caller can errors.Is-match; return a package sentinel or wrap with fmt.Errorf(...%w...)")
		}
		return true
	})
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument with a string verb instead of %w (rule 3).
func checkErrorfWrap(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.FullName() != "fmt.Errorf" || len(call.Args) < 2 {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		for _, v := range parseVerbs(constant.StringVal(tv.Value)) {
			argIndex := 1 + v.arg // args[0] is the format string
			if v.verb == 'w' || argIndex >= len(call.Args) {
				continue
			}
			if v.verb != 'v' && v.verb != 's' && v.verb != 'q' {
				continue
			}
			if lintutil.IsErrorType(pass.TypeOf(call.Args[argIndex])) {
				pass.Reportf(call.Args[argIndex].Pos(),
					"error formatted with %%%c severs the unwrap chain callers' errors.Is relies on; use %%w", v.verb)
			}
		}
		return true
	})
}

// verb is one formatting directive: which zero-based operand it consumes
// and with what verb character.
type verb struct {
	arg  int
	verb rune
}

// parseVerbs resolves a format string's directives to operand indexes,
// handling flags, star width/precision (which consume operands), and
// explicit [n] argument indexes.
func parseVerbs(format string) []verb {
	var verbs []verb
	arg := 0
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		// Flags.
		for i < len(runes) && strings.ContainsRune("#0- +", runes[i]) {
			i++
		}
		scanIndex := func() {
			if i < len(runes) && runes[i] == '[' {
				j := i + 1
				for j < len(runes) && runes[j] != ']' {
					j++
				}
				if j < len(runes) {
					if n, err := strconv.Atoi(string(runes[i+1 : j])); err == nil {
						arg = n - 1 // explicit indexes are 1-based
					}
					i = j + 1
				}
			}
		}
		scanNumOrStar := func() {
			if i < len(runes) && runes[i] == '*' {
				arg++ // star consumes an operand
				i++
				return
			}
			for i < len(runes) && runes[i] >= '0' && runes[i] <= '9' {
				i++
			}
		}
		scanIndex()
		scanNumOrStar()
		if i < len(runes) && runes[i] == '.' {
			i++
			scanNumOrStar()
		}
		scanIndex()
		if i >= len(runes) {
			break
		}
		if runes[i] == '%' {
			continue // %% consumes nothing
		}
		verbs = append(verbs, verb{arg: arg, verb: runes[i]})
		arg++
	}
	return verbs
}
