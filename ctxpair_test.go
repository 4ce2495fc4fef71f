package leakydnn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNoCtxTwins keeps one context-first form of each entry point: it parses
// the non-test code of both modules (the library with cmd/ and examples/,
// and perfbench) and fails on an exported function F beside an exported
// FCtx in the same package, or a receiver type with both methods. A second
// form that differs only by taking a context is a fork of one behaviour;
// callers without a deadline pass context.Background().
//
// ctxTwinAllowlist lists the pairs that stay, each with its reason; an entry
// that no longer names a pair fails the test, so the list cannot go stale.
func TestNoCtxTwins(t *testing.T) {
	found, err := ctxTwins(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, name := range found {
		flagged[name] = true
		if _, ok := ctxTwinAllowlist[name]; !ok {
			t.Errorf("%s has a twin %sCtx; keep one context-first form", name, name)
		}
	}
	for name := range ctxTwinAllowlist {
		if !flagged[name] {
			t.Errorf("ctxTwinAllowlist entry %s no longer has a Ctx twin; delete it", name)
		}
	}
}

// TestCtxTwinGuardFixture checks the guard on a generated package: it must
// report an exported function pair and a method pair, and ignore unexported
// pairs, a lone FCtx, methods of different receivers and pairs that only
// test files declare.
func TestCtxTwinGuardFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.go": `package a

type T struct{}
type U struct{}

func Run()         {}
func RunCtx()      {}
func walk()        {}
func walkCtx()     {}
func LoneCtx()     {}
func (T) Get()     {}
func (*T) GetCtx() {}
func (T) Put()     {}
func (U) PutCtx()  {}
`,
		"a_test.go": `package a

func Check()    {}
func CheckCtx() {}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, err := ctxTwins(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Run", "a.T.Get"}; !reflect.DeepEqual(found, want) {
		t.Errorf("findings %q, want %q", found, want)
	}
}

// ctxTwinAllowlist names the ctx-free forms that keep a Ctx twin, by the
// names ctxTwins reports.
var ctxTwinAllowlist = map[string]string{
	"internal/attack.TrainModels":         "perfbench (frozen by BENCHMARK.json paths) calls the ctx-free form",
	"internal/attack.Models.ExtractTrace": "perfbench (frozen by BENCHMARK.json paths) calls the ctx-free form",
}

// ctxTwins returns, sorted, the ctx-free half of every pair under root as
// dir.F or dir.Recv.F: dir is the directory relative to root (the package
// name at root itself) and Recv the receiver's base type. testdata and dot
// directories are skipped.
func ctxTwins(root string) ([]string, error) {
	var found []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			exported := map[string]bool{}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
						exported[recvName(fn)+fn.Name.Name] = true
					}
				}
			}
			prefix := filepath.ToSlash(rel)
			if rel == "." {
				prefix = pkg.Name
			}
			for name := range exported {
				if exported[name+"Ctx"] {
					found = append(found, prefix+"."+name)
				}
			}
		}
		return nil
	})
	sort.Strings(found)
	return found, err
}

// recvName is "T." for a method on T or *T (type parameters dropped) and ""
// for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
