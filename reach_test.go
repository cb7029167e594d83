package repro_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported production declarations that only
// tests reach on purpose, each with the reason it is kept. Keys are
// "pkg.Name" or "pkg.Type.Method".
var testOnlyAllowed = map[string]string{
	"obs.Lint":              "the exposition validator: obs-smoke's TestLintLiveURL and FuzzLint run it, and the fleet and serve tests lint their registries with it",
	"obs.Registry.Families": "TestMetricsDocDrift enumerates the live registries through it",
	"leakcheck.Check":       "internal/leakcheck is a test-support package; the stream, fleet, serve and cluster tests call it",
}

// reachableInterfaces names, as "importpath.Name", the interfaces whose
// implementing methods count as reachable: production code calls them
// through the interface (serve.NodeAdmin is how the server reaches
// cluster.Node).
var reachableInterfaces = []string{
	"error",
	"fmt.Stringer",
	"container/heap.Interface",
	"repro/internal/serve.Backend",
	"repro/internal/serve.NodeAdmin",
	"repro/internal/fleet.Handle",
	"repro/internal/collector.CounterSource",
}

// TestReachability fails on every exported production declaration
// (function, method, type, var or const) in this module that no non-test
// file references outside the declaration's own body: code that only
// tests run. The frozen bench/ module counts as production. A method
// that satisfies one of reachableInterfaces counts as reachable, and so
// does everything on testOnlyAllowed. A reference from inside a
// declaration this test reports does not keep another one alive.
//
// The test type-checks every package from source, the standard library
// included, so it takes several seconds; it skips under -short.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	prog := loadProgram(t)

	// Interfaces whose methods count as reachable: a method that
	// implements one is called through it, not by name.
	var ifaces []*types.Interface
	for _, name := range reachableInterfaces {
		ifaces = append(ifaces, prog.lookup(t, name).Type().Underlying().(*types.Interface))
	}
	satisfiesInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	// Candidates: the module's exported declarations, each with the
	// source span that is its own body.
	type decl struct {
		obj        types.Object
		key        string
		start, end token.Pos
	}
	var decls []decl
	for _, p := range prog.pkgs {
		if p.bench {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					key := p.types.Name() + "." + d.Name.Name
					if d.Recv != nil {
						if satisfiesInterface(fn) {
							continue
						}
						key = p.types.Name() + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					} else if d.Name.Name == "main" || d.Name.Name == "init" {
						continue
					}
					decls = append(decls, decl{fn, key, d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, decl{p.info.Defs[s.Name], p.types.Name() + "." + s.Name.Name, s.Pos(), s.End()})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, decl{p.info.Defs[n], p.types.Name() + "." + n.Name, s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}

	// Iterate to a fixed point: a use counts only if it lies outside the
	// declaration it names and outside every declaration found dead so far.
	// An allowed declaration is kept, so its uses count.
	dead, allowed := map[int]bool{}, map[string]bool{}
	for changed := true; changed; {
		changed = false
		inDead := func(pos token.Pos) bool {
			for i := range dead {
				if decls[i].start <= pos && pos < decls[i].end {
					return true
				}
			}
			return false
		}
		for i, d := range decls {
			if dead[i] {
				continue
			}
			live := false
			for _, pos := range prog.uses[d.obj] {
				if !(d.start <= pos && pos < d.end) && !inDead(pos) {
					live = true
					break
				}
			}
			if live {
				continue
			}
			if _, ok := testOnlyAllowed[d.key]; ok {
				allowed[d.key] = true
				continue
			}
			dead[i] = true
			changed = true
		}
	}

	var found []string
	for i := range dead {
		found = append(found, prog.fset.Position(decls[i].start).String()+": "+decls[i].key)
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is exported production code that only tests reach: delete it, move it into a test file, or give it a production caller", f)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("testOnlyAllowed lists %s, which is no longer a test-only declaration; drop the entry", key)
		}
	}
}

// program is every non-test package of this module and of bench/,
// type-checked together, with the positions of each object's uses.
type program struct {
	fset *token.FileSet
	pkgs []*checkedPackage
	uses map[types.Object][]token.Pos
	imp  types.Importer
}

// lookup finds "importpath.Name", or a universe name such as "error".
func (prog *program) lookup(t *testing.T, name string) types.Object {
	t.Helper()
	scope := types.Universe
	if i := strings.LastIndex(name, "."); i >= 0 {
		p, err := prog.imp.Import(name[:i])
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		scope, name = p.Scope(), name[i+1:]
	}
	obj := scope.Lookup(name)
	if obj == nil {
		t.Fatalf("lookup %s: not declared", name)
	}
	return obj
}

type checkedPackage struct {
	bench bool
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadProgram type-checks the module's packages (module path repro) and
// bench/'s (module repro/bench) from their non-test files. Imports of
// either module resolve to these checks, so an object is the same
// *types.Object in every package that uses it; the standard library is
// type-checked from source.
func loadProgram(t *testing.T) *program {
	t.Helper()
	prog := &program{fset: token.NewFileSet(), uses: map[types.Object][]token.Pos{}}
	dirs := map[string]string{} // import path -> directory
	for _, mod := range []struct{ root, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		err := filepath.WalkDir(mod.root, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != mod.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || p == "bench" && mod.root == ".") {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(mod.root, p)
			dirs[path.Join(mod.path, filepath.ToSlash(rel))] = p
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	std := importer.ForCompiler(prog.fset, "source", nil)
	checked := map[string]*checkedPackage{}
	var check func(importPath string) (*types.Package, error)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if _, ok := dirs[importPath]; ok {
			return check(importPath)
		}
		return std.Import(importPath)
	})
	check = func(importPath string) (*types.Package, error) {
		if p, ok := checked[importPath]; ok {
			return p.types, nil
		}
		bp, err := build.ImportDir(dirs[importPath], 0)
		if err != nil {
			return nil, err
		}
		p := &checkedPackage{
			bench: strings.HasPrefix(importPath, "repro/bench"),
			info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(importPath, prog.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		checked[importPath] = p
		prog.pkgs = append(prog.pkgs, p)
		return p.types, nil
	}

	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := check(p); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue // a directory of data files
			}
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	for _, p := range prog.pkgs {
		// A method's receiver names its type without using it.
		recv := map[token.Pos]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id.Pos()] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if recv[id.Pos()] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			prog.uses[obj] = append(prog.uses[obj], id.Pos())
		}
	}
	prog.imp = imp
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvName is the type name of a method receiver expression: T, *T,
// T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
