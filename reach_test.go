package leakydnn

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNonTestCodeIsReachable keeps the rule that non-test code holds only
// what non-test code reaches. It type-checks every non-test package of the
// repository — the library, cmd/, examples/ and the perfbench module — with
// go/types, and fails, naming each offender and where it is declared, on:
//
//   - a function or method that no non-test code uses outside its own body,
//     unless the method satisfies an interface declared in the program, in
//     its imports or in the universe (error), through which code outside
//     the repository may call it;
//   - a package-level type that no non-test code names outside its own
//     declaration and methods;
//   - a struct field that non-test code reads but never writes. A write is
//     an assignment through any selector or index chain (x.f = v, x.f.g++,
//     x.f[i] = v), &x.f, slicing x.f[:n], a pointer-method call x.f.M(), or
//     a composite-literal key, keyed or positional. A field only tests set
//     gates a path that never runs outside go test.
//
// A function or type only tests use belongs in a _test.go file; one nothing
// uses belongs nowhere; a field only tests set goes with the path it gates.
// Uses are keyed by the declaration's position, so names shared between
// methods, fields and packages never hide each other. Uses from dead
// functions and types do not count, and the check repeats until nothing
// changes, so a function called only from unreachable functions is caught
// too; a cycle of functions that call only each other is not.
// Package-level variable and constant initializers always count as live, so
// a function named only by one (a facade re-export, a dispatch table) stays.
//
// reachAllowlist lists the findings that are reached in ways the types do
// not show, each with its reason; an entry that is no longer flagged fails
// the test, so the list cannot go stale.
func TestNonTestCodeIsReachable(t *testing.T) {
	found, err := unreachable(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range found {
		flagged[f.name] = true
		if _, ok := reachAllowlist[f.name]; !ok {
			t.Errorf("%s: %s is %s", f.pos, f.name, f.why)
		}
	}
	for name := range reachAllowlist {
		if !flagged[name] {
			t.Errorf("reachAllowlist entry %s is no longer flagged; delete it", name)
		}
	}
}

// TestReachGuardFixture runs the guard on the module under testdata/reach.
// Its three findings are each one that matching names instead of types
// misses. It must keep a method reached only through an interface, a
// function named only by a package-level variable, and fields whose only
// writes are each of the forms the guard counts (shapes/writes.go).
func TestReachGuardFixture(t *testing.T) {
	found, err := unreachable(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.name)
	}
	want := []string{
		"shapes.Bag.Size",       // shares its name with Box.Size and Crate.Size
		"shapes.Config.Verbose", // only shapes_test.go sets it
		"shapes.Unused",         // named by nothing
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings %q, want %q", got, want)
	}
}

// TestNoGobImports: no non-test package of either module imports
// encoding/gob. Every persisted format is walked by internal/wire, whose
// decoders check each count against the bytes left, where gob sizes a
// message or a slice from its claim before reading it.
func TestNoGobImports(t *testing.T) {
	p, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	for path, pkg := range p.pkgs {
		for _, imp := range pkg.Imports() {
			if imp.Path() == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
	}
	if p.pkgs["leakydnn/perfbench"] == nil || p.pkgs["leakydnn/internal/wire"] == nil {
		t.Fatal("the loader missed a module")
	}
}

// TestNoSyncPool: no non-test code of either module uses sync.Pool. Memory
// that outlives an operation goes through par.FreeList, which keeps at most
// GOMAXPROCS idle entries and which the garbage collector never empties, so
// each list's retained memory has a stated bound and whether a warm
// operation allocates does not depend on GC timing.
func TestNoSyncPool(t *testing.T) {
	p, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range p.infos {
		for id, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
				t.Errorf("%s: uses sync.Pool; borrow through par.FreeList", p.fset.Position(id.Pos()))
			}
		}
	}
	if p.pkgs["leakydnn/perfbench"] == nil || p.pkgs["leakydnn/internal/par"] == nil {
		t.Fatal("the loader missed a module")
	}
}

// reachAllowlist names the findings reached in ways the types do not show,
// by the names unreachable reports.
var reachAllowlist = map[string]string{
	"cmd/loadgen.uploadOnce.Traces": "response body: encoding/json writes it by reflection",
	"perfbench.outcome.Error":       "error body: encoding/json writes it by reflection",
	"perfbench.outcome.Detail":      "error body: encoding/json writes it by reflection",

	"internal/gpu.DeviceConfig.ExactResidencyTotal": "the eager residency reference the incremental totals are tested against",
	"internal/trace.RunConfig.Horizon":              "the only way to reach the horizon-exhaustion error TestCollectHorizonGuard checks",
}

// reachFinding is one declaration the guard rejects.
type reachFinding struct {
	name string // dir.Func, dir.Type, dir.Type.Method or dir.Type.Field
	why  string
	pos  token.Position
}

// reachKind classifies the declarations the guard judges.
type reachKind int

const (
	reachFunc reachKind = iota
	reachType
	reachField
)

// reachDecl is one judged declaration. recv is the receiver's base type
// declaration for a method, and exempt marks a function that needs no
// caller (main, init, an interface's method).
type reachDecl struct {
	kind   reachKind
	name   string
	recv   token.Pos
	exempt bool
}

// reachUse is one use of target from code owned by owner: a function,
// method or type declaration, or token.NoPos for package-level variable and
// constant initializers, which always run. write marks a field write.
type reachUse struct {
	owner, target token.Pos
	write         bool
}

// reachProgram type-checks the non-test packages under one module root,
// each once: it imports the module's own packages from their source and
// everything else through the source importer, so nothing is downloaded.
type reachProgram struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*types.Package // by import path; nil while loading
	infos        []*types.Info
	decls        map[token.Pos]*reachDecl
	uses         []reachUse
}

// unreachable runs the guard on the module rooted at root and returns its
// findings, sorted by name.
func unreachable(root string) ([]reachFinding, error) {
	p, err := loadProgram(root)
	if err != nil {
		return nil, err
	}
	p.exemptInterfaceMethods()
	return p.judge(), nil
}

// loadProgram type-checks the non-test packages of the module rooted at
// root. Nested modules whose path extends root's (such as perfbench) are
// part of the program; testdata and dot directories are not.
func loadProgram(root string) (*reachProgram, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	// The pure-Go variants of the standard library type-check without a C
	// toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &reachProgram{
		fset: fset, root: root, module: module,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		decls: map[token.Pos]*reachDecl{},
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
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
		ip := module
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		_, err = p.Import(ip)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		return err
	})
	return p, err
}

// Import implements types.Importer.
func (p *reachProgram) Import(path string) (*types.Package, error) {
	if path != p.module && !strings.HasPrefix(path, p.module+"/") {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	dir := filepath.Join(p.root, filepath.FromSlash(strings.TrimPrefix(path, p.module)))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	p.infos = append(p.infos, info)
	dirName := strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/")
	if dirName == "" {
		dirName = p.module
	}
	p.declare(dirName, pkg, files, info)
	for _, f := range files {
		p.scanFile(f, info)
	}
	return pkg, nil
}

// declare records the package's functions, methods, package-level types
// and struct fields. A field is named after the top-level declaration that
// holds its struct: dir.Type.Field for a package-level struct type, and
// dir.Func.Field for a struct written out inside a function.
func (p *reachProgram) declare(dir string, pkg *types.Package, files []*ast.File, info *types.Info) {
	fields := func(prefix string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				ids := fl.Names
				if len(ids) == 0 { // embedded: the type's name defines the field
					e := fl.Type
					if star, ok := e.(*ast.StarExpr); ok {
						e = star.X
					}
					if sel, ok := e.(*ast.SelectorExpr); ok {
						e = sel.Sel
					}
					ids = []*ast.Ident{e.(*ast.Ident)}
				}
				for _, id := range ids {
					p.decls[id.Pos()] = &reachDecl{kind: reachField, name: prefix + "." + id.Name}
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name].(*types.Func)
				decl := &reachDecl{kind: reachFunc, name: dir + "." + d.Name.Name}
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					named := t.(*types.Named).Obj()
					decl.name = dir + "." + named.Name() + "." + d.Name.Name
					decl.recv = named.Pos()
				} else if d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main" {
					decl.exempt = true
				}
				if d.Name.Name != "_" {
					p.decls[d.Name.Pos()] = decl
				}
				fields(decl.name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Assign.IsValid() {
							p.decls[s.Name.Pos()] = &reachDecl{kind: reachType, name: dir + "." + s.Name.Name}
						}
						fields(dir+"."+s.Name.Name, s)
					case *ast.ValueSpec:
						fields(dir+"."+s.Names[0].Name, s)
					}
				}
			}
		}
	}
}

// scanFile records every use f's code makes of a judged declaration, with
// the declaration that owns the using code.
func (p *reachProgram) scanFile(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			p.scan(d.Name.Pos(), d, info)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				owner := token.NoPos
				if ts, ok := s.(*ast.TypeSpec); ok {
					owner = ts.Name.Pos()
				}
				p.scan(owner, s, info)
			}
		}
	}
}

// scan records the uses under n, owned by owner. Write contexts are seen
// before the identifiers under them, so marking those identifiers on the
// way down classifies every field use as it is reached.
func (p *reachProgram) scan(owner token.Pos, n ast.Node, info *types.Info) {
	writes := map[*ast.Ident]bool{}
	use := func(obj types.Object, write bool) {
		if p.decls[obj.Pos()] != nil {
			p.uses = append(p.uses, reachUse{owner: owner, target: obj.Pos(), write: write})
		}
	}
	// writeChain marks the fields along a selector and index chain as
	// written, including the embedded fields a promoted selection passes.
	writeChain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil {
					return
				}
				for _, f := range embeddedPath(sel) {
					use(f, true)
				}
				if sel.Kind() == types.FieldVal {
					writes[x.Sel] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				writeChain(lhs)
			}
		case *ast.IncDecStmt:
			writeChain(x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					writeChain(x.Key)
				}
				if x.Value != nil {
					writeChain(x.Value)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				writeChain(x.X)
			}
		case *ast.SliceExpr:
			writeChain(x.X)
		case *ast.SelectorExpr:
			// A pointer method on an addressable value takes its address.
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			for _, f := range embeddedPath(sel) {
				use(f, true)
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
				break
			}
			if _, ptrX := info.TypeOf(x.X).Underlying().(*types.Pointer); !ptrX {
				writeChain(x.X)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				} else {
					use(st.Field(i), true)
				}
			}
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				use(obj, writes[x])
			}
		}
		return true
	})
}

// embeddedPath returns the embedded fields a promoted selection passes
// through on its way to the selected field or method.
func embeddedPath(sel *types.Selection) []*types.Var {
	var path []*types.Var
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		path = append(path, f)
		t = f.Type()
	}
	return path
}

// exemptInterfaceMethods exempts every program method that implements a
// method of an interface declared in the program, in its imports or in the
// universe: code outside the repository (fmt, io, net/http, sort) may call
// it through that interface.
func (p *reachProgram) exemptInterfaceMethods() {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, info := range p.infos {
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	var named []*types.Named
	for _, pkg := range p.pkgs {
		visit(pkg)
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		for _, v := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(v)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				d := p.decls[m.Pos()]
				if d == nil || d.exempt {
					continue
				}
				for _, it := range byMethod[m.Name()] {
					if types.Implements(v, it) {
						d.exempt = true
						break
					}
				}
			}
		}
	}
}

// judge runs the fixpoint over functions and types, then judges the fields
// by the uses the live code makes, and returns the findings sorted by name.
func (p *reachProgram) judge() []reachFinding {
	live := map[token.Pos]bool{}
	for pos, d := range p.decls {
		if d.kind != reachField {
			live[pos] = true
		}
	}
	liveOwner := func(u reachUse) bool { return u.owner == token.NoPos || live[u.owner] }
	for changed := true; changed; {
		changed = false
		used := map[token.Pos]bool{}
		for _, u := range p.uses {
			if !liveOwner(u) || u.owner == u.target {
				continue
			}
			if u.owner != token.NoPos && p.decls[u.owner].recv == u.target {
				continue // a type's own methods do not keep it
			}
			used[u.target] = true
		}
		for pos := range live {
			if !used[pos] && !p.decls[pos].exempt {
				delete(live, pos)
				changed = true
			}
		}
	}
	read, written := map[token.Pos]bool{}, map[token.Pos]bool{}
	for _, u := range p.uses {
		if p.decls[u.target].kind != reachField || !liveOwner(u) {
			continue
		}
		if u.write {
			written[u.target] = true
		} else {
			read[u.target] = true
		}
	}
	var found []reachFinding
	for pos, d := range p.decls {
		var why string
		switch {
		case d.kind == reachFunc && !live[pos]:
			why = "used by no non-test code outside its own body"
		case d.kind == reachType && !live[pos]:
			why = "named by no non-test code outside its own declaration and methods"
		case d.kind == reachField && read[pos] && !written[pos]:
			why = "read by non-test code but written by none"
		default:
			continue
		}
		found = append(found, reachFinding{name: d.name, why: why, pos: p.fset.Position(pos)})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found
}
