package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
}

// goList runs `go list -export -deps -json` in dir over the patterns
// and returns every listed package (targets and dependencies).
// -export materialises compiler export data for each package in the
// build cache; the type-checker imports dependencies from those files,
// so loading needs no network and no source re-checking of deps.
func goList(dir string, patterns []string) (map[string]*listedPkg, []string, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Incomplete",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	byPath := make(map[string]*listedPkg)
	var targets []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		cp := p
		byPath[p.ImportPath] = &cp
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p.ImportPath)
		}
	}
	sort.Strings(targets)
	return byPath, targets, nil
}

// exportImporter builds a types.Importer that resolves every import
// from the export data files `go list -export` reported.
func exportImporter(fset *token.FileSet, byPath map[string]*listedPkg) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		p := byPath[path]
		if p == nil {
			return nil, fmt.Errorf("analysis: import %q was not listed", path)
		}
		if p.Export == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(p.Export)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseAndCheck parses files and type-checks them as one package.
func parseAndCheck(fset *token.FileSet, imp types.Importer, importPath string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", f, err)
		}
		asts = append(asts, af)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      asts,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Load resolves the package patterns relative to dir (a directory
// inside a Go module), parses and type-checks every matched package
// from source, and returns them in import-path order. Test files are
// not loaded: the invariants the suite enforces are production-code
// contracts, and tests legitimately use wall clocks and allocate.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	byPath, targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, byPath)
	var pkgs []*Package
	for _, path := range targets {
		lp := byPath[path]
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := parseAndCheck(fset, imp, path, files)
		if err != nil {
			return nil, err
		}
		pkg.Dir = lp.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads one package from the .go files directly inside dir
// (non-recursive), under the given import path. It is the analysistest
// loader: golden packages live under testdata, outside the module's
// package graph, and may import the standard library — imports are
// resolved through `go list -export` run from dir (any directory of
// this repo works, since stdlib resolution only needs a Go toolchain).
//
//sidco:oracle the golden-package loader of the analyzers' own tests
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)

	// Discover the imports so one go list call can materialise export
	// data for exactly the packages the golden files use.
	fset := token.NewFileSet()
	imports := make(map[string]bool)
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", f, err)
		}
		for _, im := range af.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err == nil && p != "unsafe" {
				imports[p] = true
			}
		}
	}
	byPath := make(map[string]*listedPkg)
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		byPath, _, err = goList(dir, paths)
		if err != nil {
			return nil, err
		}
	}
	pkg, err := parseAndCheck(fset, exportImporter(fset, byPath), importPath, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}
