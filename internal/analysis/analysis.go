// Package analysis is the repo's static-analysis suite: five analyzers
// that enforce at compile time the invariants the runtime test matrix
// (AllocsPerRun guards, -race, bitwise loss comparisons) can only catch
// on exercised paths, and the design rule that no API is kept alive
// only by its own tests.
//
//   - determinism flags wall-clock reads (time.Now/Since/...), global
//     math/rand top-level functions, and map iteration whose body
//     accumulates floats, appends to a result, or writes output —
//     iteration-order-dependent results break the repo's bit-identity
//     contract. A seeded *rand.Rand is fine; intentional wall-clock
//     sites carry a `//sidco:nondet <reason>` directive.
//   - hotpath checks functions marked `//sidco:hotpath` (the
//     CompressInto/EncodeTo/DecodeInto/Step/schedule-runner paths the
//     AllocsPerRun tests pin at zero) for allocation sources on every
//     branch, including error branches runtime guards never execute:
//     closure literals, interface boxing, fmt/errors constructors,
//     string concatenation, make/new, slice and map literals, goroutine
//     spawns, and appends that do not land in persistent scratch.
//     Intentional allocations (one-time ring growth, failing error
//     paths) carry `//sidco:alloc <reason>`.
//   - lockcheck ties struct fields annotated `// guarded by <mu>` to
//     the named sibling mutex: accessing such a field in a function
//     that has not locked the mutex (lexically before the access, with
//     no intervening unlock) is a finding. Functions whose caller holds
//     the lock declare it with `//sidco:locked <mu> <reason>`; reads
//     that are safe without the lock (immutable slice headers) carry
//     `//sidco:nolock <reason>`.
//   - errclass runs in packages that declare the classified transport
//     sentinels (ErrPeerLost, ErrTimeout, ErrClosed,
//     ErrHandshakeTimeout — internal/cluster): a returned error must be
//     nil, a propagated error value, a wrap of a sentinel or of another
//     error, or a type with an Unwrap method. Freshly minted
//     unclassified errors (errors.New, fmt.Errorf with no error
//     operand) defeat the retry logic's recoverable-vs-fatal split and
//     need a `//sidco:errclass <reason>` exemption.
//   - deadexport flags, in packages under internal/, an exported
//     identifier (or an exported method that implements no interface
//     method) that no non-test file of the root or the nested bench
//     module references outside its own declaration. Exports kept on
//     purpose for tests carry `//sidco:oracle <reason>`.
//
// The types here deliberately mirror golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic), but the implementation is stdlib-only:
// packages are loaded via `go list -export` and type-checked against
// compiler export data (see load.go), so the suite adds no module
// dependencies. cmd/sidco-vet is the multichecker driver; the CI quick
// gate runs it over ./... and requires a clean exit.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check, structured like
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph description shown by sidco-vet -help.
	Doc string
	// Run performs the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass hands one analyzer one type-checked package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string

	// Report records one finding. The driver wires it up.
	Report func(Diagnostic)

	directives map[string]map[int][]Directive // filename -> line -> directives
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted finding at pos unless a directive of the
// given suppression name covers the position (same line, the line
// above, or the enclosing function declaration — see Suppressed).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Position resolves a token.Pos.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// TypeOf returns the static type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer to each package and returns every
// finding sorted by position. Analyzer errors abort the run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ImportPath: pkg.ImportPath,
				Report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	// All packages of one load share a FileSet (see Load), so any
	// package's Fset positions every diagnostic.
	fset := pkgs[0].Fset
	sort.Slice(diags, func(i, j int) bool {
		pi := fset.Position(diags[i].Pos)
		pj := fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{DeterminismAnalyzer, HotpathAnalyzer, LockcheckAnalyzer, ErrclassAnalyzer, DeadexportAnalyzer}
}
