package negativaml

// The dead-surface check: no production code that only tests call. Every
// function and method under internal/ and in this facade must be reachable
// from a program the repository ships or measures itself with — a main
// under cmd/ or bench/ — or be justified in .github/dead-surface-allow.txt
// with a one-line reason. Standard library only: go/parser and go/types,
// with the standard library itself type-checked from source.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const (
	surfaceModule    = "negativaml"
	surfaceAllowFile = ".github/dead-surface-allow.txt"
)

// surfaceLoader type-checks the module's packages from source, each once,
// so an object has one identity however many packages refer to it. Imports
// outside the module go to the standard library's source importer.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func newSurfaceLoader() *surfaceLoader {
	fset := token.NewFileSet()
	return &surfaceLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
}

// Import implements types.Importer.
func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != surfaceModule && !strings.HasPrefix(path, surfaceModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(".", strings.TrimPrefix(path, surfaceModule))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// goDirs lists the import paths of the directories under root, at any depth,
// that hold non-test Go files.
func goDirs(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				paths = append(paths, surfaceModule+"/"+filepath.ToSlash(path))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// funcID names a function or method the way the allow-list does:
// import/path.Func or import/path.Type.Method.
func funcID(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
			continue
		case *ast.IndexExpr:
			recv = r.X
			continue
		case *ast.IndexListExpr:
			recv = r.X
			continue
		case *ast.ParenExpr:
			recv = r.X
			continue
		}
		break
	}
	return pkg + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
}

// readSurfaceAllow parses the allow-list: "<id> <reason>" per line, # for
// comments.
func readSurfaceAllow(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(surfaceAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", surfaceAllowFile, id)
		}
		allow[id] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func TestNoDeadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	l := newSurfaceLoader()
	var roots []string
	for _, dir := range []string{"cmd", "bench"} {
		roots = append(roots, goDirs(t, dir)...)
	}
	candidates := append(goDirs(t, "internal"), surfaceModule)
	for _, path := range append(append([]string(nil), roots...), candidates...) {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	// Every package-level declaration of the module, by the object it
	// declares; function declarations once more on their own.
	decls := map[types.Object]ast.Node{}
	funcs := map[types.Object]*ast.FuncDecl{}
	for _, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := l.info.Defs[d.Name]
					decls[obj], funcs[obj] = d, d
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls[l.info.Defs[spec.Name]] = spec
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								decls[l.info.Defs[name]] = spec
							}
						}
					}
				}
			}
		}
	}

	// A method carrying one of these names may be called through an
	// interface, in the module or in the standard library.
	ifaceMethods := map[string]bool{}
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	for _, p := range l.pkgs {
		collect(p)
	}

	live := map[types.Object]bool{}
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		node, declared := decls[obj]
		if !declared || live[obj] {
			return
		}
		live[obj] = true
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := l.info.Uses[id]; used != nil {
					mark(used)
				}
			}
			return true
		})
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); ifaceMethods[m.Name()] {
						mark(m)
					}
				}
			}
		}
	}
	// Roots: main and init of the shipped programs, and the init functions
	// of every module package they import.
	reach := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if reach[p] || l.files[p.Path()] == nil {
			return
		}
		reach[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, path := range roots {
		visit(l.pkgs[path])
	}
	for obj, fd := range funcs {
		if fd.Recv != nil || !reach[obj.Pkg()] {
			continue
		}
		if fd.Name.Name == "init" || (fd.Name.Name == "main" && obj.Pkg().Name() == "main") {
			mark(obj)
		}
	}

	isCandidate := map[string]bool{}
	for _, path := range candidates {
		isCandidate[path] = true
	}
	dead := map[string]int{}
	for obj, fd := range funcs {
		if !isCandidate[obj.Pkg().Path()] || live[obj] || fd.Name.Name == "_" {
			continue
		}
		dead[funcID(obj.Pkg().Path(), fd)] = l.fset.Position(fd.End()).Line - l.fset.Position(fd.Pos()).Line + 1
	}

	allow := readSurfaceAllow(t)
	var names []string
	lines := 0
	for id, n := range dead {
		names = append(names, id)
		lines += n
	}
	sort.Strings(names)
	for _, id := range names {
		if _, ok := allow[id]; !ok {
			t.Errorf("%s (%d lines) is reachable from no main under cmd/ or bench/: delete it, or give the reason it stays in %s", id, dead[id], surfaceAllowFile)
		}
	}
	for id := range allow {
		if _, ok := dead[id]; !ok {
			t.Errorf("%s lists %s, which is live or gone: drop the entry", surfaceAllowFile, id)
		}
	}
	t.Logf("%d allowed functions, %d lines", len(names), lines)
}
