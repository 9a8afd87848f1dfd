package zapc_test

// Every struct field is read (DESIGN.md §1): state that code writes and
// nothing reads is a concept a reader must understand for no effect.
//
// The check covers each unexported field of a struct declared in a
// non-test file outside benchmark/ and internal/gm, and fails unless
// some non-test file anywhere (cmd/, examples/ and benchmark/ included)
// reads it. A use is not a read when it is
//   - the target of an assignment or op-assignment (x.f = v, x.f += v),
//   - the operand of ++ or --,
//   - a key of a composite literal (T{f: v}),
//   - the operand of an index-assignment target (x.f[k] = v),
//   - delete's first argument, or
//   - append's first argument where the append is assigned back to the
//     same field (x.f = append(x.f, v)).
// Every other use reads: len(x.f), &x.f, x.f.g = v. The fields of a
// struct used as a map key are read by every lookup, which compares
// them. Embedded fields are out of scope: a promoted selector reads one
// without naming it. Any other exemption is in fieldExempt with its
// reason; an exemption whose field is read, or gone, fails the check.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fieldExempt names the unexported fields that may go unread by
// production code, by qualified name, each with its reason.
var fieldExempt = map[string]string{
	"zapc/internal/vos.Process.exitCode": "the exit status a process records; vos's tests read it to check how a program ended",
}

// deadFields returns "file:line: pkg.Type.field" for every field under
// the rule above that no non-test file reads, and one line for every
// entry of exempt that names no unread field; root-relative and sorted.
func deadFields(l *loader, root string, exempt map[string]string) (dead, stale []string) {
	uses := map[*ast.Ident]types.Object{}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			uses[id] = obj
		}
	}
	field := func(e ast.Expr) *ast.Ident {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return sel.Sel
			}
		}
		return nil
	}
	builtin := func(call *ast.CallExpr, name string) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		b, isB := uses[id].(*types.Builtin)
		return ok && isB && b.Name() == name
	}
	declOf := func(id *ast.Ident) token.Position {
		return l.fset.Position(uses[id].(*types.Var).Origin().Pos())
	}

	candidates := map[token.Position]string{} // declaration -> qualified name
	read := map[token.Position]bool{}
	for _, p := range l.sorted() {
		inScope := p.path != "zapc/internal/gm" && !strings.HasPrefix(p.path, "zapc/benchmark")
		for _, f := range p.files {
			if inScope {
				declaredFields(f, func(id *ast.Ident, path string) {
					candidates[l.fset.Position(id.Pos())] = p.path + "." + path
				})
			}
			writes := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
							lhs = ix.X
						}
						target := field(lhs)
						if target == nil {
							continue
						}
						writes[target] = true
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && builtin(call, "append") && len(call.Args) > 0 {
							if arg := field(call.Args[0]); arg != nil && declOf(arg) == declOf(target) {
								writes[arg] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if target := field(n.X); target != nil {
						writes[target] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := uses[id].(*types.Var); ok && v.IsField() {
							writes[id] = true
						}
					}
				case *ast.CallExpr:
					if builtin(n, "delete") && len(n.Args) > 0 {
						if target := field(n.Args[0]); target != nil {
							writes[target] = true
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !writes[id] {
					if v, ok := uses[id].(*types.Var); ok && v.IsField() {
						read[declOf(id)] = true
					}
				}
				return true
			})
		}
	}

	// A map lookup compares its key's fields.
	seen := map[types.Type]bool{}
	var keyRead func(types.Type)
	keyRead = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[l.fset.Position(u.Field(i).Origin().Pos())] = true
				keyRead(u.Field(i).Type())
			}
		case *types.Array:
			keyRead(u.Elem())
		}
	}
	for _, info := range l.infos {
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				keyRead(m.Key())
			}
		}
	}

	unread := map[string]bool{}
	for pos, name := range candidates {
		if read[pos] {
			continue
		}
		unread[name] = true
		if _, ok := exempt[name]; !ok {
			rel, _ := filepath.Rel(root, pos.Filename)
			dead = append(dead, rel+":"+strconv.Itoa(pos.Line)+": "+name)
		}
	}
	for name, reason := range exempt {
		if !unread[name] {
			stale = append(stale, name+" ("+reason+")")
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// declaredFields calls fn for each unexported, named field of every
// struct type in f, with its path: the enclosing function, type, var
// and field names, joined by dots.
func declaredFields(f *ast.File, fn func(id *ast.Ident, path string)) {
	var names []string
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			var name string
			switch c := c.(type) {
			case *ast.FuncDecl:
				name = c.Name.Name
			case *ast.TypeSpec:
				name = c.Name.Name
			case *ast.ValueSpec:
				name = c.Names[0].Name
			case *ast.Field:
				if len(c.Names) > 0 {
					name = c.Names[0].Name
				}
			case *ast.StructType:
				for _, fl := range c.Fields.List {
					for _, id := range fl.Names {
						if !id.IsExported() && id.Name != "_" {
							fn(id, strings.Join(append(names, id.Name), "."))
						}
					}
				}
			}
			if name == "" {
				return true
			}
			names = append(names, name)
			walk(c)
			names = names[:len(names)-1]
			return false
		})
	}
	walk(f)
}

func TestStructFieldsAreRead(t *testing.T) {
	dead, stale := deadFields(loadRepo(t, "."), ".", fieldExempt)
	for _, d := range dead {
		t.Errorf("%s is written but no non-test code reads it; read it or delete it", d)
	}
	for _, s := range stale {
		t.Errorf("fieldExempt names %s, which is not an unread field; delete the exemption", s)
	}
}

// TestStructFieldRuleBites runs the check on testdata/deadfields, whose
// fields are named for what the rule must decide, and on exemptions
// that name a read field and a missing one.
func TestStructFieldRuleBites(t *testing.T) {
	root := filepath.Join("testdata", "deadfields")
	l := loadRepo(t, root)
	names := func(dead []string) (out []string) {
		for _, d := range dead {
			_, name, _ := strings.Cut(d, ": ")
			out = append(out, strings.TrimPrefix(name, "zapc."))
		}
		sort.Strings(out)
		return out
	}
	want := []string{
		"inner.deadSet",
		"state.deadAppended",
		"state.deadAssigned",
		"state.deadDeleted",
		"state.deadIncDec",
		"state.deadIndexed",
		"state.deadLitKey",
		"state.deadOpAssigned",
		"state.deadTestOnly", // last: the exemption below drops it
	}
	dead, stale := deadFields(l, root, nil)
	if !slices.Equal(names(dead), want) || len(stale) != 0 {
		t.Errorf("dead fields:\n%s\nwant:\n%s\nstale: %q", strings.Join(dead, "\n"), strings.Join(want, "\n"), stale)
	}

	dead, stale = deadFields(l, root, map[string]string{
		"zapc.state.deadTestOnly": "read by a test",
		"zapc.state.liveLen":      "stale: len reads it",
		"zapc.state.gone":         "stale: no such field",
	})
	if got := names(dead); !slices.Equal(got, want[:len(want)-1]) {
		t.Errorf("with state.deadTestOnly exempt, dead fields: %q", got)
	}
	if wantStale := []string{"zapc.state.gone (stale: no such field)", "zapc.state.liveLen (stale: len reads it)"}; !slices.Equal(stale, wantStale) {
		t.Errorf("stale exemptions: %q, want %q", stale, wantStale)
	}
}
