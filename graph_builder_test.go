package negativaml

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneGraphBuilder keeps the stage graph built in one place: negativa.Batch
// is the only builder, and every entry point — negativa.Debloat, the batch
// service — runs it, passing its tiers in as hooks. A stage graph built
// anywhere else is a second planner the golden suite does not hold to the
// monolith. bench/ is exempt: its no-op DAG probe times dispatch alone.
func TestOneGraphBuilder(t *testing.T) {
	allowed := map[string]bool{"internal/plan": true, "internal/negativa": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || allowed[filepath.ToSlash(path)] || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "negativaml/internal/plan" {
				local = "plan"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					t.Errorf("%s: builds a stage graph; build it as a negativa.Batch and pass the tiers in as its hooks", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
