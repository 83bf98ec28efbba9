package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TelemetryGuard enforces the telemetry subsystems' hot-path contract:
// inside //samzasql:hotpath functions, every call into a telemetry package
// must sit inside an if whose condition checks that package's own on bit.
// For internal/trace (span recording, context construction, cursor methods)
// the bit is the sample bit — `if act.Sampled() { ... }` or
// `if m.Trace.Sampled { ... }`; for internal/profile (capture, folding,
// batch construction) it is the enable bit — `if prof.Enabled() { ... }`.
// The check itself is the guard and stays legal anywhere; it is branch-only
// (Enabled is also nil-safe), so telemetry that is off costs the hot path
// one predicted branch. Everything else these packages do (clock reads, ID
// generation, StartCPUProfile, pprof folds) allocates or stops the world
// and must never run on the off path. A package's calls count as guarded
// only under its own bit: a trace call under `if prof.Enabled()` is
// reported.
var TelemetryGuard = &Analyzer{
	Name: "telemetry-guard",
	Doc: "calls into internal/trace and internal/profile inside //samzasql:hotpath functions must " +
		"be guarded by a branch on that package's own bit (if x.Sampled() or if x.Trace.Sampled " +
		"for trace, if x.Enabled() for profile); the telemetry-off path stays branch-only",
	Run: runTelemetryGuard,
}

// telemetryGuard is one row of the analyzer's table: a guarded package, the
// identifier whose mention in an if condition guards the if body, and the
// diagnostic format (callee name, function name).
type telemetryGuard struct {
	pkgSuffix string
	guard     string
	message   string
}

var telemetryGuards = []telemetryGuard{
	{
		pkgSuffix: "internal/trace",
		guard:     "Sampled",
		message:   "unguarded trace.%s call in //samzasql:hotpath function %s costs the unsampled path; branch on the sample bit first: if x.Sampled() { ... } or if x.Trace.Sampled { ... }",
	},
	{
		pkgSuffix: "internal/profile",
		guard:     "Enabled",
		message:   "unguarded profile.%s call in //samzasql:hotpath function %s costs the profiler-off path; branch on the enable bit first: if x.Enabled() { ... }",
	},
}

func runTelemetryGuard(pass *Pass) {
	for _, decl := range pass.Pkg.HotPathFuncs() {
		checkTelemetryGuard(pass, decl)
	}
}

func checkTelemetryGuard(pass *Pass, decl *ast.FuncDecl) {
	// Guarded regions per guard identifier: bodies of if statements whose
	// condition mentions it (method call or struct field — both spellings
	// of the trace sample bit). Lexical containment is the check; an
	// early-return inversion (`if !sampled { return }`) deliberately does
	// not count, so the guarded work stays visibly bracketed.
	guarded := map[string][]*ast.BlockStmt{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, g := range telemetryGuards {
			if mentionsIdent(ifs.Cond, g.guard) {
				guarded[g.guard] = append(guarded[g.guard], ifs.Body)
			}
		}
		return true
	})
	inGuard := func(n ast.Node, guard string) bool {
		for _, b := range guarded[guard] {
			if n.Pos() >= b.Pos() && n.End() <= b.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		for _, g := range telemetryGuards {
			if !strings.HasSuffix(fn.Pkg().Path(), g.pkgSuffix) {
				continue
			}
			if fn.Name() != g.guard && !inGuard(call, g.guard) {
				pass.Reportf(call.Pos(), g.message, fn.Name(), decl.Name.Name)
			}
		}
		return true
	})
}

// mentionsIdent reports whether a condition references an identifier or
// selector with the given name.
func mentionsIdent(cond ast.Expr, name string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

// calleeFunc resolves call's target to a function or method, or nil when
// the callee is not a named function (a closure, a conversion, a builtin).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info().Uses[id].(*types.Func)
	return fn
}
