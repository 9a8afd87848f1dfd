package zapc_test

// Every exported name has a caller outside its own package's tests
// (DESIGN.md §1), and every test selector in the Makefile selects a
// test. `make boundary` runs both.
//
// The first check type-checks every package in the repository — the
// zapc module and the nested benchmark module, whose path zapc/benchmark
// extends zapc's — and lists each exported func, method, type, var and
// const declared outside benchmark/ that nothing references except its
// declaration and its own package's tests. A reference from non-test
// code anywhere (cmd/, examples/ and benchmark/ included) or from
// another package's tests counts. Struct fields are out of scope. The
// exemptions, each with its reason:
//   - a method that makes its type satisfy an interface declaring a
//     method of that name (String, Error, Read, Less, …) is reached
//     through the interface, which a type checker does not follow;
//   - the members of a typed iota block (netstack.Opt, faultinject.Action)
//     are an encoding: a value is named by what it means, used or not;
//   - zapc.go's type aliases are governed by the facade's reachability
//     clause (a signature reachable from Cluster, Job, … needs them);
//   - internal/gm is the paper §5 prototype, whose deliverable is its
//     tests (DESIGN.md §4).

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// srcPkg is one directory's package: its files, parsed once, and the
// type-checked production package.
type srcPkg struct {
	path                string
	files, tests, xtest []*ast.File
	prod, withTests     *types.Package
}

type loader struct {
	fset  *token.FileSet
	pkgs  map[string]*srcPkg // by import path
	std   types.Importer
	infos []*types.Info // every check's, production and test
	errs  []error       // production type errors: a loader fault
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.production(p), nil
	}
	return l.std.Import(path)
}

func (l *loader) check(path string, files []*ast.File, imp types.Importer, prod bool) *types.Package {
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) {
		// An external test package sees two copies of the package under
		// test (its test variant, and the production one that other
		// imports carry), which may disagree; references still resolve.
		if prod {
			l.errs = append(l.errs, err)
		}
	}}
	pkg, _ := conf.Check(path, l.fset, files, info)
	l.infos = append(l.infos, info)
	return pkg
}

func (l *loader) production(p *srcPkg) *types.Package {
	if p.prod == nil {
		p.prod = l.check(p.path, p.files, l, true)
	}
	return p.prod
}

// xtestImporter resolves the package under test to its test variant, so
// names from export_test.go resolve in the external test package.
type xtestImporter struct {
	*loader
	self *srcPkg
}

func (x xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.self.path && x.self.withTests != nil {
		return x.self.withTests, nil
	}
	return x.loader.Import(path)
}

// loadRepo parses every package under root and type-checks its
// production files, its in-package tests and its external tests.
func loadRepo(t *testing.T, root string) *loader {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*srcPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &srcPkg{path: "zapc"}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtest}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		l.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.sorted() {
		if len(p.files) > 0 {
			l.production(p)
		}
	}
	for _, p := range l.sorted() {
		if len(p.tests) > 0 {
			p.withTests = l.check(p.path, append(append([]*ast.File{}, p.files...), p.tests...), l, false)
		}
		if len(p.xtest) > 0 {
			l.check(p.path+"_test", p.xtest, xtestImporter{l, p}, false)
		}
	}
	for _, err := range l.errs {
		t.Error(err)
	}
	return l
}

func (l *loader) sorted() []*srcPkg {
	var out []*srcPkg
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// interfaces lists every interface with methods that the checked code
// names — the module's and the standard library's declared interfaces,
// and interface literals in type assertions and parameters — plus error.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		if !it.IsMethodSet() {
			// A constraint such as interface{ *T; Layout(Visitor) }:
			// what a call through it reaches is its methods.
			var ms []*types.Func
			for i := 0; i < it.NumMethods(); i++ {
				ms = append(ms, it.Method(i))
			}
			it = types.NewInterfaceType(ms, nil).Complete()
		}
		out = append(out, it)
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.sorted() {
		walk(p.prod)
	}
	for _, info := range l.infos {
		for _, tv := range info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesByName reports whether m is how its receiver type satisfies
// some interface that declares a method named m.
func satisfiesByName(m *types.Func, recv types.Type, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// iotaMembers returns the positions of the names declared in typed
// const blocks that use iota.
func iotaMembers(files []*ast.File) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
				continue
			}
			first := gd.Specs[0].(*ast.ValueSpec)
			usesIota := false
			ast.Inspect(gd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					usesIota = true
				}
				return !usesIota
			})
			if first.Type == nil || !usesIota {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					out[name.Pos()] = true
				}
			}
		}
	}
	return out
}

// deadExports returns "file:line: name" for every exported name under
// the rule above, root-relative and sorted.
func deadExports(t *testing.T, root string) []string {
	l := loadRepo(t, root)
	ifaces := l.interfaces()
	candidates := map[token.Position]string{} // declaration -> qualified name
	for _, p := range l.sorted() {
		if p.prod == nil || p.path == "zapc/internal/gm" || strings.HasPrefix(p.path, "zapc/benchmark") {
			continue
		}
		exempt := iotaMembers(p.files)
		scope := p.prod.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if obj.Exported() && !exempt[obj.Pos()] && !(p.path == "zapc" && isType && tn.IsAlias()) {
				candidates[l.fset.Position(obj.Pos())] = p.path + "." + name
			}
			if !isType || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						candidates[l.fset.Position(m.Pos())] = p.path + "." + name + "." + m.Name()
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfiesByName(m, named, ifaces) {
					candidates[l.fset.Position(m.Pos())] = p.path + "." + name + "." + m.Name()
				}
			}
		}
	}
	used := map[token.Position]bool{}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			decl := l.fset.Position(obj.Pos())
			if _, ok := candidates[decl]; !ok {
				continue
			}
			use := l.fset.Position(id.Pos())
			if !strings.HasSuffix(use.Filename, "_test.go") || filepath.Dir(use.Filename) != filepath.Dir(decl.Filename) {
				used[decl] = true
			}
		}
	}
	var dead []string
	for pos, name := range candidates {
		if !used[pos] {
			rel, _ := filepath.Rel(root, pos.Filename)
			dead = append(dead, rel+":"+strconv.Itoa(pos.Line)+": "+name)
		}
	}
	sort.Strings(dead)
	return dead
}

func TestExportedNamesHaveCallers(t *testing.T) {
	for _, d := range deadExports(t, ".") {
		t.Errorf("%s is exported but nothing outside its package's tests refers to it; use it, move it into the package's tests, or delete it", d)
	}
}

// TestMakefileTestSelectorsMatch fails when an alternative of a -run or
// -fuzz pattern in the Makefile matches no Test or Fuzz function of the
// packages its line names: a gate whose selector went stale passes by
// running nothing.
func TestMakefileTestSelectorsMatch(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	sel := regexp.MustCompile(`-(run|fuzz) '([^']*)'`)
	checked := 0
	for n, line := range strings.Split(string(mk), "\n") {
		all := sel.FindAllStringSubmatch(line, -1)
		if all == nil {
			continue
		}
		var dirs []string
		last := all[len(all)-1][0]
		for _, f := range strings.Fields(line[strings.LastIndex(line, last)+len(last):]) {
			if f == "." || strings.HasPrefix(f, "./") {
				dirs = append(dirs, f)
			}
		}
		if len(dirs) == 0 {
			t.Errorf("Makefile:%d: %s names no package", n+1, last)
			continue
		}
		names := testFuncs(t, dirs)
		for _, m := range all {
			for _, alt := range strings.Split(strings.ReplaceAll(m[2], "$$", "$"), "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: %q: %v", n+1, alt, err)
					continue
				}
				if re.MatchString("") {
					continue // '^$': run no test, on purpose
				}
				checked++
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("Makefile:%d: -%s alternative %q matches no Test or Fuzz function in %s", n+1, m[1], alt, strings.Join(dirs, " "))
				}
			}
		}
	}
	t.Logf("%d selector alternatives checked", checked)
}

// testFuncs lists the Test and Fuzz functions in the _test.go files of
// dirs.
func testFuncs(t *testing.T, dirs []string) []string {
	var names []string
	for _, dir := range dirs {
		paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, path := range paths {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
