package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repo's bit-identity contract: for a
// fixed seed, every execution mode (in-process, channel, TCP,
// checkpoint-resume) must produce bitwise-equal results.
// Three things silently break that:
//
//   - wall-clock reads (time.Now, time.Since, ...) feeding computation;
//   - the global math/rand functions, whose stream is shared,
//     unseeded, and scheduling-dependent (a seeded *rand.Rand owned by
//     one worker is fine and idiomatic here);
//   - ranging over a map while accumulating floats, appending to a
//     result, or writing output — Go randomises map iteration order,
//     so the result depends on the run. Integer accumulation is
//     exempt (exact arithmetic commutes), and the collect-then-sort
//     idiom is recognised: appending map keys into a slice that is
//     sorted later in the same function is deterministic.
//
// Intentional wall-clock sites (TCP deadlines, benchmark measurement,
// debug clocks) are annotated `//sidco:nondet <reason>`.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand use, and order-dependent " +
		"map iteration that break bit-identical training",
	Run: runDeterminism,
}

// nondetTimeFuncs are the time package functions that read the wall or
// monotonic clock. time.Sleep only delays; it cannot change a result.
var nondetTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runDeterminism(pass *Pass) error {
	checkDirectiveReasons(pass, "nondet")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			checkDeterminismNode(pass, decl, fn)
		}
	}
	return nil
}

// checkDeterminismNode walks one top-level declaration. fn is the
// enclosing function declaration when the decl is one (so function-doc
// directives can suppress), else nil.
func checkDeterminismNode(pass *Pass, root ast.Node, fn *ast.FuncDecl) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondetCall(pass, n, fn)
		case *ast.RangeStmt:
			checkMapRange(pass, n, fn, root)
		}
		return true
	})
}

// checkNondetCall flags wall-clock reads and global math/rand calls.
func checkNondetCall(pass *Pass, call *ast.CallExpr, fn *ast.FuncDecl) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. a seeded *rand.Rand) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if nondetTimeFuncs[obj.Name()] && !pass.suppressed(call.Pos(), fn, "nondet") {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a deterministic package (annotate //sidco:nondet <reason> if intentional)",
				obj.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewZipf, ...) build seeded
		// generators — the seed is right there at the call site and
		// determinism is the caller's choice. Only the top-level draw
		// functions (Intn, Float64, Perm, Shuffle, ...) touch the
		// shared stream.
		if strings.HasPrefix(obj.Name(), "New") {
			return
		}
		if !pass.suppressed(call.Pos(), fn, "nondet") {
			pass.Reportf(call.Pos(),
				"global %s.%s draws from the shared unseeded stream; use a seeded *rand.Rand (or annotate //sidco:nondet <reason>)",
				obj.Pkg().Name(), obj.Name())
		}
	}
}

// checkMapRange flags a range over a map whose body makes the result
// depend on iteration order.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, fn *ast.FuncDecl, root ast.Node) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkRangeAssign(pass, rng, n, fn, root)
		case *ast.SendStmt:
			if !pass.suppressed(n.Pos(), fn, "nondet") {
				pass.Reportf(n.Pos(), "channel send inside map iteration emits values in random order")
			}
		case *ast.CallExpr:
			checkRangeOutputCall(pass, n, fn)
		}
		return true
	})
}

// checkRangeAssign flags float accumulation and result-building
// appends whose target outlives the loop.
func checkRangeAssign(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, fn *ast.FuncDecl, root ast.Node) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if isFloat(pass.TypeOf(lhs)) && declaredOutside(pass, lhs, rng) &&
				!pass.suppressed(as.Pos(), fn, "nondet") {
				pass.Reportf(as.Pos(),
					"float accumulation inside map iteration is order-dependent (rounding does not commute)")
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			lhs := as.Lhs[i]
			if !declaredOutside(pass, lhs, rng) {
				continue
			}
			if sortedAfter(pass, lhs, rng, root) {
				continue // collect-then-sort: deterministic by construction
			}
			if !pass.suppressed(as.Pos(), fn, "nondet") {
				pass.Reportf(as.Pos(),
					"append inside map iteration builds a randomly-ordered result; sort it afterwards or iterate sorted keys")
			}
		}
	}
}

// checkRangeOutputCall flags writes to output streams inside a map
// range: fmt.Fprint*/Print* and Write* methods emit in random order.
func checkRangeOutputCall(pass *Pass, call *ast.CallExpr, fn *ast.FuncDecl) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	name := obj.Name()
	isOutput := false
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		switch name {
		case "Fprintf", "Fprint", "Fprintln", "Printf", "Print", "Println":
			isOutput = true
		}
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			isOutput = true
		}
	}
	if isOutput && !pass.suppressed(call.Pos(), fn, "nondet") {
		pass.Reportf(call.Pos(), "%s inside map iteration writes output in random order", name)
	}
}

// isFloat reports whether t has floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredOutside reports whether expr's root object is declared
// outside the range statement (so writes to it survive the loop).
// Non-identifier targets (fields, indexed elements) count as outside.
func declaredOutside(pass *Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return true
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedAfter reports whether the append target is passed to a sort.*
// or slices.Sort* call positioned after the range loop within root —
// the collect-then-sort idiom that restores determinism. Targets are
// matched by object identity for plain identifiers and by canonical
// spelling for selector chains (tl.Steps), which is lexical but
// faithful to how the idiom is written.
func sortedAfter(pass *Pass, expr ast.Expr, rng *ast.RangeStmt, root ast.Node) bool {
	key, ok := sortTargetKey(pass, expr)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fnObj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fnObj.Pkg() == nil {
			return true
		}
		pkg := fnObj.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if akey, ok := sortTargetKey(pass, arg); ok && akey == key {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortTargetKey canonicalises an append/sort target for matching: the
// types.Object for identifiers, the rendered spelling for selectors.
func sortTargetKey(pass *Pass, expr ast.Expr) (any, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(e); obj != nil {
			return obj, true
		}
	case *ast.SelectorExpr:
		return exprString(e), true
	}
	return nil, false
}
