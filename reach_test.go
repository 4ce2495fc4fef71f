package leakydnn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNonTestCodeIsReachable keeps the rule that non-test code holds only
// what non-test code reaches. It parses every non-test .go file in the
// repository — the library, cmd/, examples/ and the perfbench module — and
// fails, naming each offender and its file, when a function or method is
// referenced by name from no non-test code outside its own body. A function
// only tests call belongs in a _test.go file; one nothing calls belongs
// nowhere. The check repeats until nothing changes, so a function called
// only from unreachable functions is caught too; a cycle of functions that
// call only each other is not.
//
// References are matched by name, not by type: a package-level function is
// referenced by a bare identifier in its own package or by pkg.Name where
// pkg imports its package; a method is referenced by any selector .Name or
// any interface method of that name. So a dead method whose name collides
// with a live method or a struct field anywhere in the repository (Add,
// Scale, Clone) cannot be seen. Package-level declarations always count as
// live code, so neither can a function that only a variable initializer,
// such as a facade re-export, names. Methods called only through
// standard-library interfaces may look unreferenced; reachAllowlist lists
// them.
func TestNonTestCodeIsReachable(t *testing.T) {
	dead, files := unreachableFuncs(t, ".")
	if len(dead) == 0 {
		return
	}
	t.Errorf("%d non-test functions are referenced by no non-test code; delete them or move them into a _test.go file:", len(dead))
	for _, k := range dead {
		t.Errorf("  %s: %s", files[k], k)
	}
}

// reachAllowlist names the methods that look unreferenced but are reached:
// by method name for standard-library interfaces, which call them from
// outside the repository, and by dir.Type.Method for repository code that
// tests in other packages need.
var reachAllowlist = map[string]string{
	"Error":   "error: fmt and errors call it on returned errors",
	"String":  "fmt.Stringer: fmt calls it when printing",
	"Read":    "io.Reader: net/http and io read request bodies through it",
	"Write":   "io.Writer: fmt, bufio and io write through it",
	"WriteTo": "io.WriterTo: io.Copy calls it",

	"internal/gpu.QueueSource.Enqueue": "a fake kernel source that gpu and defense tests both drive",
	"internal/trace.Health.Clean":      "trace and serve tests both check a health report with it",
}

// funcKey identifies one function (recv empty) or method declaration. The
// zero key stands for package-level code, which always runs.
type funcKey struct{ dir, recv, name string }

func (k funcKey) String() string {
	if k.recv == "" {
		return k.dir + "." + k.name
	}
	return k.dir + "." + k.recv + "." + k.name
}

// target is what a reference to k names: one package-level function, or
// every method of k's name.
func (k funcKey) target() string {
	if k.recv == "" {
		return "func " + k.String()
	}
	return "method " + k.name
}

// funcRef is one reference from owner's code to a target.
type funcRef struct {
	owner  funcKey
	target string
}

// unreachableFuncs scans the non-test files under root and returns the
// unreachable functions, sorted, with the file that declares each.
func unreachableFuncs(t *testing.T, root string) ([]funcKey, map[funcKey]string) {
	t.Helper()
	files := map[funcKey]string{}
	var refs []funcRef
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		refs = append(refs, scanFile(f, dir, p, files)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	live := map[funcKey]bool{}
	for k := range files {
		live[k] = true
	}
	for changed := true; changed; {
		owners := map[string]map[funcKey]bool{}
		for _, r := range refs {
			if r.owner != (funcKey{}) && !live[r.owner] {
				continue
			}
			if owners[r.target] == nil {
				owners[r.target] = map[funcKey]bool{}
			}
			owners[r.target][r.owner] = true
		}
		changed = false
		for k := range live {
			by := owners[k.target()]
			if reachExempt(k) || len(by) > 1 || len(by) == 1 && !by[k] {
				continue
			}
			delete(live, k)
			changed = true
		}
	}

	var dead []funcKey
	for k := range files {
		if !live[k] {
			dead = append(dead, k)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].String() < dead[j].String() })
	return dead, files
}

// reachExempt reports the declarations that need no caller: program entry
// points and allowlisted methods.
func reachExempt(k funcKey) bool {
	if k.recv == "" {
		return k.name == "main" || k.name == "init"
	}
	_, byName := reachAllowlist[k.name]
	_, byKey := reachAllowlist[k.String()]
	return byName || byKey
}

// scanFile records f's function declarations in files and returns the
// references its code makes.
func scanFile(f *ast.File, dir, file string, files map[funcKey]string) []funcRef {
	imports := map[string]string{}
	for _, is := range f.Imports {
		ip, _ := strconv.Unquote(is.Path.Value)
		local := path.Base(ip)
		if is.Name != nil {
			local = is.Name.Name
		}
		switch {
		case ip == "leakydnn":
			imports[local] = "."
		case strings.HasPrefix(ip, "leakydnn/"):
			imports[local] = strings.TrimPrefix(ip, "leakydnn/")
		default:
			imports[local] = "std:" + ip
		}
	}
	var refs []funcRef
	var walk func(owner funcKey, n ast.Node)
	walk = func(owner funcKey, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if pkgDir, ok := imports[id.Name]; ok {
						refs = append(refs, funcRef{owner, funcKey{dir: pkgDir, name: x.Sel.Name}.target()})
						return false
					}
				}
				refs = append(refs, funcRef{owner, funcKey{recv: "*", name: x.Sel.Name}.target()})
				walk(owner, x.X) // not x.Sel: a selector never names a same-package function
				return false
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, name := range m.Names {
						refs = append(refs, funcRef{owner, funcKey{recv: "*", name: name.Name}.target()})
					}
				}
			case *ast.Ident:
				refs = append(refs, funcRef{owner, funcKey{dir: dir, name: x.Name}.target()})
			}
			return true
		})
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			walk(funcKey{}, d)
			continue
		}
		k := funcKey{dir: dir, name: fd.Name.Name}
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			k.recv = recvTypeName(fd.Recv.List[0].Type)
		}
		if fd.Name.Name != "_" {
			files[k] = file
		}
		walk(k, fd.Type)
		if fd.Recv != nil {
			walk(k, fd.Recv)
		}
		if fd.Body != nil {
			walk(k, fd.Body)
		}
	}
	return refs
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
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
			return ""
		}
	}
}
