package rng

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

// TestNoOtherSeedSources keeps New the one way seeds become generators:
// no non-test file of the module outside this package and the frozen
// bench/ suite may call math/rand's NewSource.
func TestNoOtherSeedSources(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "rng") || d.Name() == "testdata" ||
				strings.HasPrefix(d.Name(), ".") && rel != "." {
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
		checked++
		names := map[string]bool{}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				name := "rand"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
					t.Errorf("%s: calls %s.NewSource; use rng.New", fset.Position(sel.Pos()), x.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("checked only %d files; is the module root at %s?", checked, root)
	}
}
