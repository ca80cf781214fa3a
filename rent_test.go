package hdcps

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRent is the rent audit (DESIGN.md "Rent", README "Testing tiers"):
// every package-level func, method, type, const, var and struct field of
// the module that no non-test code references must be deleted or listed in
// rent_allowlist.txt with a reason the test can check, and a line whose name
// is now referenced, or gone, fails too, so the list only shrinks. It
// type-checks the module's non-test files with go/types against the standard
// library's export data from one `go list -export -deps` call. benchmark/
// counts as a caller, but its own declarations are not audited.
//
// A name counts as used without a line when it is referenced outside its own
// declaration, when it is a method through which a type satisfies an
// interface declared in the module, in a standard package the module
// imports, error, or one of the shapes package errors calls (errorsIfaces;
// promoted methods included), and when it is an embedded field, a field
// with a struct tag (encoding/json reads it), func main or func init. A
// struct field counts only its reads: a reference that is an assignment's
// target, the field a sync/atomic Store or a discarded Add is called on, or
// a struct literal's key reads nothing (fieldWrites).
func TestRent(t *testing.T) {
	a, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	unused := a.unused()
	allow, err := readAllowlist(rentAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range unused {
		if _, ok := allow[c.key]; !ok {
			t.Errorf("%s %s: delete it or add a reason to %s", a.where(c.pos), c.key, rentAllowlist)
		}
	}
	byKey := map[string]candidate{}
	for _, c := range a.candidates {
		byKey[c.key] = c
	}
	isUnused := map[string]bool{}
	for _, c := range unused {
		isUnused[c.key] = true
	}
	for _, l := range sortedLines(allow) {
		c, ok := byKey[l.key]
		switch {
		case !ok:
			t.Errorf("%s:%d %s: no such declaration; delete the line", rentAllowlist, l.line, l.key)
		case !isUnused[l.key]:
			t.Errorf("%s:%d %s: now used by non-test code; delete the line", rentAllowlist, l.line, l.key)
		default:
			if err := a.checkReason(c, l.reason, allow); err != nil {
				t.Errorf("%s:%d %s: %v", rentAllowlist, l.line, l.key, err)
			}
		}
	}
}

const (
	rentAllowlist = "rent_allowlist.txt"
	modulePath    = "hdcps"
	// benchmarkPkg calls into the module but is edited only with the
	// benchmark itself, so its own declarations are not audited.
	benchmarkPkg = modulePath + "/benchmark"
)

type listedPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
}

// modPkg is one module package type-checked from its non-test files.
type modPkg struct {
	listedPkg
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// candidate is one audited declaration.
type candidate struct {
	key   string // import path + "." + Name, Type.Method or Type.Field
	obj   types.Object
	pos   token.Pos
	owner *types.TypeName // a field's struct type, else nil
}

type audit struct {
	fset       *token.FileSet
	root       string
	pkgs       []*modPkg
	byPath     map[string]*modPkg
	stdImports map[string]*types.Package
	candidates []candidate
	used       map[types.Object]bool
	testFiles  []string
	// loadSinks are the fields some assignment stores a loaded value into
	// (an index expression on its right side); mapKeys the types some map
	// type in non-test code is keyed by.
	loadSinks map[types.Object]bool
	mapKeys   map[types.Object]bool
}

// loadModule lists the module and its standard-library dependencies, then
// type-checks the module's packages from source in dependency order.
func loadModule() (*audit, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	a := &audit{
		fset:       token.NewFileSet(),
		root:       root,
		byPath:     map[string]*modPkg{},
		stdImports: map[string]*types.Package{},
		used:       map[types.Object]bool{},
		loadSinks:  map[types.Object]bool{},
		mapKeys:    map[types.Object]bool{},
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		m := &modPkg{listedPkg: p}
		a.pkgs = append(a.pkgs, m)
		a.byPath[p.ImportPath] = m
		for _, f := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			a.testFiles = append(a.testFiles, filepath.Join(p.Dir, f))
		}
	}
	std := importer.ForCompiler(a.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if m, ok := a.byPath[path]; ok {
			return m.pkg, nil
		}
		p, err := std.Import(path)
		if err == nil {
			a.stdImports[path] = p
		}
		return p, err
	})
	conf := types.Config{Importer: imp}
	for _, m := range a.pkgs { // go list -deps puts every package after its dependencies
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(a.fset, filepath.Join(m.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			m.files = append(m.files, f)
		}
		m.info = &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		if m.pkg, err = conf.Check(m.ImportPath, a.fset, m.files, m.info); err != nil {
			return nil, err
		}
	}
	a.collect()
	return a, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// span is a declaration's own extent: a reference inside it (a recursive
// call, a method's receiver naming its type) is not a use.
type span struct{ from, to token.Pos }

// collect lists the audited declarations and marks every used object.
func (a *audit) collect() {
	own := map[types.Object][]span{}
	for _, m := range a.pkgs {
		audited := m.ImportPath != benchmarkPkg
		for _, f := range m.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := m.info.Defs[d.Name]
					own[obj] = append(own[obj], span{d.Pos(), d.End()})
					if d.Recv != nil {
						if tn := recvTypeName(m.info, d.Recv.List[0].Type); tn != nil {
							own[tn] = append(own[tn], span{d.Recv.Pos(), d.Recv.End()})
						}
					}
					if !audited || d.Name.Name == "_" || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && m.pkg.Name() == "main") {
						continue
					}
					a.candidates = append(a.candidates, candidate{keyOf(obj), obj, d.Name.Pos(), nil})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := m.info.Defs[s.Name]
							own[obj] = append(own[obj], span{s.Pos(), s.End()})
							if !audited {
								continue
							}
							a.candidates = append(a.candidates, candidate{keyOf(obj), obj, s.Name.Pos(), nil})
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								if len(fld.Names) == 0 || fld.Tag != nil {
									continue // embedded, or read by encoding/json
								}
								for _, n := range fld.Names {
									if n.Name != "_" {
										key := keyOf(obj) + "." + n.Name
										a.candidates = append(a.candidates, candidate{key, m.info.Defs[n], n.Pos(), obj.(*types.TypeName)})
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := m.info.Defs[n]; obj != nil {
									own[obj] = append(own[obj], span{s.Pos(), s.End()})
									if audited && n.Name != "_" {
										a.candidates = append(a.candidates, candidate{keyOf(obj), obj, n.Pos(), nil})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, m := range a.pkgs {
		writes := a.fieldWrites(m)
	uses:
		for id, obj := range m.info.Uses {
			obj = origin(obj)
			if writes[id] {
				continue
			}
			for _, s := range own[obj] {
				if s.from <= id.Pos() && id.Pos() < s.to {
					continue uses
				}
			}
			a.used[obj] = true
		}
	}
	a.markInterfaceMethods()
}

// fieldWrites returns the references to struct fields in m that read
// nothing: an assignment's target, the field a sync/atomic Store or a
// discarded Add is called on, and a key of a struct literal. A field whose
// every reference is one of these is written and never read. It also
// records m's load sinks and map key types.
func (a *audit) fieldWrites(m *modPkg) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	field := func(e ast.Expr) *ast.Ident {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if v, ok := m.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return sel.Sel
		}
		return nil
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id := field(lhs)
					if id == nil {
						continue
					}
					writes[id] = true
					if len(n.Rhs) == len(n.Lhs) && containsIndex(n.Rhs[i]) {
						a.loadSinks[origin(m.info.Uses[id])] = true
					}
				}
			case *ast.IncDecStmt:
				if id := field(n.X); id != nil {
					writes[id] = true
				}
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					break
				}
				meth, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || meth.Sel.Name != "Store" && meth.Sel.Name != "Add" {
					break
				}
				if fn, ok := m.info.Uses[meth.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					break
				}
				if id := field(meth.X); id != nil {
					writes[id] = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
							writes[id] = true
						}
					}
				}
			case *ast.MapType:
				if tn := typeNameOf(m.info, n.Key); tn != nil {
					a.mapKeys[tn] = true
				}
			}
			return true
		})
	}
	return writes
}

func containsIndex(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		_, ok := n.(*ast.IndexExpr)
		found = found || ok
		return !found
	})
	return found
}

// typeNameOf resolves a type expression naming a type (T or pkg.T).
func typeNameOf(info *types.Info, e ast.Expr) *types.TypeName {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		tn, _ := info.Uses[x].(*types.TypeName)
		return tn
	case *ast.SelectorExpr:
		tn, _ := info.Uses[x.Sel].(*types.TypeName)
		return tn
	}
	return nil
}

// errorsIfaces are the interface literals through which package errors
// calls an error's own methods.
const errorsIfaces = `package errors

type (
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
)`

// markInterfaceMethods marks as used every method through which a module
// type satisfies an interface declared in the module, in a standard package
// the module imports, error, or one of errorsIfaces.
func (a *audit) markInterfaceMethods() {
	var ifaces []*types.Interface
	addScope := func(s *types.Scope, exportedOnly bool) {
		for _, name := range s.Names() {
			tn, ok := s.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || exportedOnly && !tn.Exported() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// errorsIfaces is a constant that parses and type-checks.
	f, _ := parser.ParseFile(a.fset, "errors.go", errorsIfaces, 0)
	shapes, _ := new(types.Config).Check("errors", a.fset, []*ast.File{f}, nil)
	addScope(shapes.Scope(), false)
	for _, m := range a.pkgs {
		addScope(m.pkg.Scope(), false)
	}
	for _, p := range a.stdImports {
		addScope(p.Scope(), true)
	}
	for _, m := range a.pkgs {
		s := m.pkg.Scope()
		for _, name := range s.Names() {
			tn, ok := s.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				ms := types.NewMethodSet(t)
				if ms.Len() == 0 {
					continue
				}
				for _, it := range ifaces {
					if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						im := it.Method(i)
						if sel := ms.Lookup(im.Pkg(), im.Name()); sel != nil {
							a.used[origin(sel.Obj())] = true
						}
					}
				}
			}
		}
	}
}

// unused returns the audited declarations no non-test code uses.
func (a *audit) unused() []candidate {
	var out []candidate
	for _, c := range a.candidates {
		if !a.used[c.obj] {
			out = append(out, c)
		}
	}
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvTypeName is the named type of a method receiver expression.
func recvTypeName(info *types.Info, e ast.Expr) *types.TypeName {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			tn, _ := info.Uses[x].(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

// keyOf names a package-level object or a method as the allowlist does: the
// package's import path, then Name or Type.Method (a field is Type.Field).
func keyOf(obj types.Object) string {
	prefix := obj.Pkg().Path() + "."
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return prefix + namedOf(f.Type().(*types.Signature).Recv().Type()).Obj().Name() + "." + f.Name()
	}
	return prefix + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// where prints pos relative to the module root.
func (a *audit) where(pos token.Pos) string {
	p := a.fset.Position(pos)
	if rel, err := filepath.Rel(a.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

type allowLine struct {
	key, reason string
	line        int
}

// readAllowlist parses "key reason" lines; blank lines and # comments are
// skipped.
func readAllowlist(path string) (map[string]allowLine, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]allowLine{}
	for i, l := range strings.Split(string(b), "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		key, reason, _ := strings.Cut(l, " ")
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, key)
		}
		out[key] = allowLine{key, strings.TrimSpace(reason), i + 1}
	}
	return out, nil
}

func sortedLines(m map[string]allowLine) []allowLine {
	out := make([]allowLine, 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

var (
	reAnonIface = regexp.MustCompile(`^reached through an anonymous interface at (\S+):(\d+)$`)
	reTestProbe = regexp.MustCompile(`^test probe for (Test\w+)$`)
	reREADME    = regexp.MustCompile(`^public API: README §(.+)$`)
	reReturned  = regexp.MustCompile(`^names a type returned by (\w+(?:\.\w+)?)$`)
	reBenchmark = regexp.MustCompile(`^named by (benchmark/\w+\.go)$`)
)

// checkReason verifies an allowlist reason against the code it cites.
func (a *audit) checkReason(c candidate, reason string, allow map[string]allowLine) error {
	switch {
	case reason == "answer accessor":
		return a.checkAnswerAccessor(c)
	case reAnonIface.MatchString(reason):
		s := reAnonIface.FindStringSubmatch(reason)
		return a.checkAnonIface(c, s[1], s[2])
	case reTestProbe.MatchString(reason):
		return a.checkTestProbe(c, reTestProbe.FindStringSubmatch(reason)[1])
	case reREADME.MatchString(reason):
		return checkREADME(c, reREADME.FindStringSubmatch(reason)[1])
	case reReturned.MatchString(reason):
		return a.checkReturned(c, reReturned.FindStringSubmatch(reason)[1], allow)
	case reason == "load sink":
		if !a.loadSinks[c.obj] {
			return errors.New("a load sink is a field some assignment stores an indexed load into")
		}
		return nil
	case reason == "map key field":
		if c.owner == nil || !a.mapKeys[c.owner] {
			return errors.New("a map key field is a field of a struct type that keys a map type")
		}
		return nil
	case reBenchmark.MatchString(reason):
		return checkBenchmark(c, reBenchmark.FindStringSubmatch(reason)[1])
	}
	return fmt.Errorf("reason %q is not one of: answer accessor; reached through an anonymous interface at <file:line>; test probe for <TestName>; public API: README §<section>; names a type returned by <facade entry>; load sink; map key field; named by benchmark/<file>", reason)
}

// The benchmark file must mention the name. benchmark/ is edited only with
// the benchmark, so a field it sets stays while it does.
func checkBenchmark(c candidate, file string) error {
	b, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if !regexp.MustCompile(`\b` + c.obj.Name() + `\b`).Match(b) {
		return fmt.Errorf("%s does not mention %s", file, c.obj.Name())
	}
	return nil
}

// An answer accessor is a method of a type that implements
// workload.Workload: tests read a solve's answer through it.
func (a *audit) checkAnswerAccessor(c candidate) error {
	f, ok := c.obj.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return errors.New("an answer accessor is a method")
	}
	w := a.byPath[modulePath+"/internal/workload"].pkg.Scope().Lookup("Workload").Type().Underlying().(*types.Interface)
	named := namedOf(f.Type().(*types.Signature).Recv().Type())
	if !types.Implements(types.NewPointer(named), w) {
		return fmt.Errorf("%s does not implement workload.Workload", named.Obj().Name())
	}
	return nil
}

// The cited line must open an interface type inside a function body (a
// literal or a local type) that declares a method of this name.
func (a *audit) checkAnonIface(c candidate, file, line string) error {
	for _, m := range a.pkgs {
		for _, f := range m.files {
			if rel, _ := filepath.Rel(a.root, a.fset.Position(f.Pos()).Filename); rel != filepath.FromSlash(file) {
				continue
			}
			found := false
			for _, d := range f.Decls {
				if _, ok := d.(*ast.FuncDecl); !ok {
					continue // package-level interfaces count without a line
				}
				ast.Inspect(d, func(n ast.Node) bool {
					it, ok := n.(*ast.InterfaceType)
					if !ok || fmt.Sprint(a.fset.Position(it.Pos()).Line) != line {
						return true
					}
					for _, meth := range it.Methods.List {
						for _, id := range meth.Names {
							found = found || id.Name == c.obj.Name()
						}
					}
					return true
				})
			}
			if !found {
				return fmt.Errorf("no interface literal declaring %s at %s:%s", c.obj.Name(), file, line)
			}
			return nil
		}
	}
	return fmt.Errorf("%s is not a non-test file of the module", file)
}

// The named test must exist, and its file must mention the name.
func (a *audit) checkTestProbe(c candidate, test string) error {
	decl := regexp.MustCompile(`(?m)^func ` + test + `\(`)
	word := regexp.MustCompile(`\b` + c.obj.Name() + `\b`)
	for _, path := range a.testFiles {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if decl.Match(b) {
			if !word.Match(b) {
				return fmt.Errorf("%s does not mention %s", path, c.obj.Name())
			}
			return nil
		}
	}
	return fmt.Errorf("no test named %s", test)
}

// The README section must exist and mention the name.
func checkREADME(c candidate, section string) error {
	b, err := os.ReadFile("README.md")
	if err != nil {
		return err
	}
	level, body := 0, []string(nil)
	for _, l := range strings.Split(string(b), "\n") {
		hashes := len(l) - len(strings.TrimLeft(l, "#"))
		if hashes > 0 && strings.HasPrefix(l[hashes:], " ") {
			if level > 0 && hashes <= level {
				break
			}
			if level == 0 && strings.TrimSpace(l[hashes:]) == section {
				level = hashes
			}
			continue
		}
		if level > 0 {
			body = append(body, l)
		}
	}
	if level == 0 {
		return fmt.Errorf("README.md has no section %q", section)
	}
	if !regexp.MustCompile(`\b` + c.obj.Name() + `\b`).MatchString(strings.Join(body, "\n")) {
		return fmt.Errorf("README.md §%s does not mention %s", section, c.obj.Name())
	}
	return nil
}

// The name must be a facade alias for a type that a kept facade entry (a
// used or allowlisted function of package hdcps, or a method of a facade
// type) returns, directly or as a pointer, slice, map or channel element.
func (a *audit) checkReturned(c candidate, entry string, allow map[string]allowLine) error {
	tn, ok := c.obj.(*types.TypeName)
	if !ok || c.obj.Pkg().Path() != modulePath || !tn.IsAlias() {
		return errors.New("only a facade type alias can name a returned type")
	}
	root := a.byPath[modulePath].pkg
	typeName, method, isMethod := strings.Cut(entry, ".")
	obj := root.Scope().Lookup(typeName)
	if obj == nil {
		return fmt.Errorf("no facade entry %s", entry)
	}
	if isMethod {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, root, method)
		if obj == nil {
			return fmt.Errorf("no facade entry %s", entry)
		}
	}
	if _, listed := allow[keyOf(obj)]; !a.used[origin(obj)] && !listed {
		return fmt.Errorf("%s is not kept: nothing uses it and no allowlist line keeps it", entry)
	}
	sig, ok := obj.Type().Underlying().(*types.Signature)
	if !ok {
		return fmt.Errorf("%s is not a function", entry)
	}
	want := types.Unalias(tn.Type())
	for i := 0; i < sig.Results().Len(); i++ {
		if mentions(sig.Results().At(i).Type(), want) {
			return nil
		}
	}
	return fmt.Errorf("%s does not return %s", entry, tn.Name())
}

func mentions(t, want types.Type) bool {
	for {
		if types.Identical(t, want) {
			return true
		}
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			if mentions(u.Key(), want) {
				return true
			}
			t = u.Elem()
		default:
			return false
		}
	}
}
