package leakydnn

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

// TestTranscendentalsAreOwned: on amd64, math.Exp (and math.Tanh through
// it) picks an FMA or a non-FMA branch by CPU, and the two differ in the
// last bit, so any non-test use would tie a trained network's bits to the
// machine. Non-test code anywhere in the repository, perfbench included,
// must call internal/mat's Exp and Tanh instead; this test fails on any
// reference to math.Exp or math.Tanh, and on a dot import of math, which
// would hide one.
func TestTranscendentalsAreOwned(t *testing.T) {
	banned := map[string]bool{"Exp": true, "Tanh": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "math" {
				continue
			}
			name := "math"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				t.Errorf("%s: dot import of math", fset.Position(imp.Pos()))
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && banned[sel.Sel.Name] {
					t.Errorf("%s: math.%s in non-test code; use mat.%s", fset.Position(sel.Pos()), sel.Sel.Name, sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
