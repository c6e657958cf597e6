package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// DeadexportAnalyzer keeps the design rule "no API kept alive only by
// its own tests". In a package under internal/ it flags
//
//   - an exported package-level func, type, var or const, and
//   - an exported method that implements no interface method in the
//     program,
//
// that no non-test file references outside its own declaration (a
// type's own methods do not count as uses of it). The uses index always
// covers the whole repo — the module holding the package plus every
// module nested under it (the step benchmark is one) — so the findings
// do not depend on the patterns the driver was given. An export that
// exists on purpose for tests (an oracle they compare against, a fixture
// they build) carries `//sidco:oracle <reason>` in its doc comment.
var DeadexportAnalyzer = &Analyzer{
	Name: "deadexport",
	Doc: "flag exported identifiers in internal/ packages that no non-test " +
		"file of the repo references",
	Run: runDeadexport,
}

func runDeadexport(pass *Pass) error {
	if !slices.Contains(strings.Split(pass.ImportPath, "/"), "internal") || len(pass.Files) == 0 {
		return nil
	}
	checkDirectiveReasons(pass, "oracle")
	idx, err := usesIndexFor(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	if err != nil {
		return err
	}
	check := func(id *ast.Ident, docs ...*ast.CommentGroup) {
		obj := pass.TypesInfo.Defs[id]
		key := exportKey(obj)
		if !id.IsExported() || key == "" || idx.uses[key] || idx.implementsIface(obj) {
			return
		}
		for _, doc := range docs {
			if d, ok := commentDirective(doc, "oracle"); ok && d.Arg != "" {
				return
			}
		}
		pass.Reportf(id.Pos(), "exported %s is referenced by no non-test file: delete it or mark it //sidco:oracle <reason>",
			strings.TrimPrefix(key, pass.ImportPath+"."))
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, d.Doc, s.Doc)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name, d.Doc, s.Doc)
						}
					}
				}
			}
		}
	}
	return nil
}

// exportKey names a package-level object ("path.Name") or a method
// ("path.Recv.Name") the same way in every type-check, so a use seen
// through export data matches the declaration checked from source.
// Anything else (fields, locals, interface methods) has no key.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := recvNamed(recv.Type()); named != nil && !types.IsInterface(named) {
				return path + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return path + "." + obj.Name()
}

// recvNamed returns the named type of a method receiver (T or *T).
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// usesIndex is what the non-test code of one repo references.
type usesIndex struct {
	uses   map[string]bool // exportKey of every object used outside its own declaration
	ifaces [][]string      // every interface in the program, as its methods' methodKeys
	seen   map[string]bool // the interfaces already in ifaces
}

var (
	usesMu    sync.Mutex
	usesCache = make(map[string]*usesIndex) // guarded by usesMu
)

// usesIndexFor returns the index of the repo holding file: the module
// whose go.mod is nearest above it plus every module nested under that
// one. It is built once per repo and process.
func usesIndexFor(file string) (*usesIndex, error) {
	root, err := moduleRoot(file)
	if err != nil {
		return nil, err
	}
	usesMu.Lock()
	defer usesMu.Unlock()
	if idx := usesCache[root]; idx != nil {
		return idx, nil
	}
	// errors.Is, As and Unwrap reach these methods through interfaces
	// spelled inside the errors package's function bodies.
	idx := &usesIndex{uses: make(map[string]bool), seen: make(map[string]bool), ifaces: [][]string{
		{"Unwrap()(error,)"}, {"Unwrap()([]error,)"}, {"Is(error,)(bool,)"}, {"As(any,)(bool,)"},
	}}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.Name() != "go.mod" {
			return nil
		}
		pkgs, err := Load(filepath.Dir(path), "./...")
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			idx.add(pkg)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("deadexport: indexing %s: %w", root, err)
	}
	usesCache[root] = idx
	return idx, nil
}

// moduleRoot walks up from file to the nearest directory with a go.mod.
func moduleRoot(file string) (string, error) {
	dir, err := filepath.Abs(filepath.Dir(file))
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("deadexport: no go.mod above %s", file)
		}
		dir = parent
	}
}

// add records pkg's uses and the interfaces it declares, imports or
// spells inline.
func (idx *usesIndex) add(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				owners := []string{exportKey(pkg.Info.Defs[d.Name])}
				if d.Recv != nil {
					if named := recvNamed(pkg.Info.TypeOf(d.Recv.List[0].Type)); named != nil {
						owners = append(owners, exportKey(named.Obj()))
					}
				}
				idx.addUses(pkg.Info, d, owners)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var owners []string
					switch s := spec.(type) {
					case *ast.TypeSpec:
						owners = append(owners, exportKey(pkg.Info.Defs[s.Name]))
					case *ast.ValueSpec:
						for _, name := range s.Names {
							owners = append(owners, exportKey(pkg.Info.Defs[name]))
						}
					}
					idx.addUses(pkg.Info, spec, owners)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				idx.addIface(pkg.Info.TypeOf(it))
			}
			return true
		})
	}
	idx.addIface(types.Universe.Lookup("error").Type())
	for _, p := range append(pkg.Types.Imports(), pkg.Types) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				idx.addIface(tn.Type())
			}
		}
	}
}

// addUses records the key of every object n references, except the
// owners: the keys of what n itself declares.
func (idx *usesIndex) addUses(info *types.Info, n ast.Node, owners []string) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if key := exportKey(info.Uses[id]); key != "" && !slices.Contains(owners, key) {
			idx.uses[key] = true
		}
		return true
	})
}

// addIface records t's methods if t is an interface with methods.
func (idx *usesIndex) addIface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	ms := make([]string, iface.NumMethods())
	for i := range ms {
		ms[i] = methodKey(iface.Method(i))
	}
	if key := strings.Join(ms, ";"); !idx.seen[key] {
		idx.seen[key] = true
		idx.ifaces = append(idx.ifaces, ms)
	}
}

// implementsIface reports whether obj is a method that implements a
// method of some interface in the program: its receiver's method set
// covers the whole interface, this method included.
func (idx *usesIndex) implementsIface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(recvNamed(fn.Type().(*types.Signature).Recv().Type())))
	have := make(map[string]bool, ms.Len())
	for i := range ms.Len() {
		have[methodKey(ms.At(i).Obj())] = true
	}
	self := methodKey(fn)
	missing := func(m string) bool { return !have[m] }
	for _, iface := range idx.ifaces {
		if slices.Contains(iface, self) && !slices.ContainsFunc(iface, missing) {
			return true
		}
	}
	return false
}

// methodKey spells a method's name and its parameter and result types
// with full package paths, so equal methods from separate type-checks
// match.
func methodKey(m types.Object) string {
	sig := m.Type().(*types.Signature)
	b := bytes.NewBufferString(m.Name())
	for _, tup := range [2]*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := range tup.Len() {
			types.WriteType(b, tup.At(i).Type(), nil)
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
