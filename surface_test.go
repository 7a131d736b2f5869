package rssd

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
	"sync"
	"testing"
)

// surfaceAllowed are the exported identifiers of internal/ that only tests
// use and that stay exported anyway, each for a reason no test-only file can
// serve.
var surfaceAllowed = map[string]bool{
	// A build-tag fact (race_on.go / race_off.go) that the allocation tests
	// of ten packages read to skip under the race detector; a _test.go file
	// cannot export across packages.
	"bufpool.RaceEnabled": true,
	// The sequential reference that TestFetchEntriesMatchesAppendingFrames and
	// FuzzAppendSegmentEntries compare the concurrent fetch against.
	"oplog.AppendSegmentEntries": true,
}

// surface is the type-checked non-test code of the module and of
// benchmark/: every package, and the set of objects some non-test file uses.
type surface struct {
	fset *token.FileSet
	pkgs map[string]*checkedPkg // by import path
	used map[types.Object]bool
	// ifaces are the named interfaces of the module and of every standard
	// package it imports, for "this method satisfies an interface".
	ifaces []*types.Interface
}

type checkedPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

var (
	surfaceOnce sync.Once
	surfaceVal  *surface
	surfaceErr  error
)

// loadSurface parses and type-checks every non-test package of the module
// and benchmark/'s non-test files, once per test binary.
func loadSurface(t *testing.T) *surface {
	t.Helper()
	surfaceOnce.Do(func() { surfaceVal, surfaceErr = buildSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceVal
}

func buildSurface() (*surface, error) {
	s := &surface{fset: token.NewFileSet(), pkgs: map[string]*checkedPkg{}, used: map[types.Object]bool{}}
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if skipDir(p, d.Name()) {
			return filepath.SkipDir
		}
		path := "repro"
		if p != "." {
			path += "/" + filepath.ToSlash(p)
		}
		dirs[path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(s.fset, "source", nil)
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "repro" || strings.HasPrefix(path, "repro/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if cp, ok := s.pkgs[path]; ok {
			return cp.pkg, nil
		}
		cp := &checkedPkg{path: path}
		ents, err := os.ReadDir(dirs[path])
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dirs[path], name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(dirs[path], name), nil, 0)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		cp.info = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		cp.pkg, err = conf.Check(path, s.fset, cp.files, cp.info)
		if err != nil {
			return nil, err
		}
		s.pkgs[path] = cp
		return cp.pkg, nil
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					s.ifaces = append(s.ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	s.ifaces = append(s.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range paths {
		cp := s.pkgs[p]
		if cp == nil {
			continue
		}
		walk(cp.pkg)
		for _, obj := range cp.info.Uses {
			s.used[origin(obj)] = true
		}
		// A promoted field or method uses every embedded field on its path.
		for _, sel := range cp.info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				st, ok := deref(typ).Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := st.Field(i)
				s.used[origin(f)] = true
				typ = f.Type()
			}
		}
	}
	return s, nil
}

// skipDir reports whether the walk from the repo root leaves directory p
// (named name) out, as the go tool does.
func skipDir(p, name string) bool {
	return p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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

// internalPkgs returns the checked packages under internal/, by import path.
func (s *surface) internalPkgs() []*checkedPkg {
	var out []*checkedPkg
	for _, cp := range s.pkgs {
		if strings.HasPrefix(cp.path, "repro/internal/") {
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// satisfiesInterface reports whether method m lets its receiver type satisfy
// some interface of the module or the standard library that has a method of
// that name.
func (s *surface) satisfiesInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	named, ok := deref(recv).(*types.Named)
	if !ok {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range s.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// promoted reports whether method m, declared on an unexported type, is
// promoted into the method set of an exported type of pkg by embedding, and
// so is public surface after all.
func promoted(pkg *types.Package, m *types.Func) bool {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		obj, index, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, pkg, m.Name())
		if obj == m && len(index) > 1 {
			return true
		}
	}
	return false
}

// unused lists every exported package-level name, exported method and
// exported struct field declared in internal/ that no non-test file uses.
func (s *surface) unused() []string {
	var out []string
	for _, cp := range s.internalPkgs() {
		short := cp.pkg.Name()
		for id, obj := range cp.info.Defs {
			if obj == nil || !id.IsExported() || s.used[obj] {
				continue
			}
			var name string
			switch o := obj.(type) {
			case *types.Func:
				sig := o.Type().(*types.Signature)
				if sig.Recv() == nil {
					name = short + "." + o.Name()
					break
				}
				named, ok := deref(sig.Recv().Type()).(*types.Named)
				if !ok {
					continue // an interface's method: its implementers are checked
				}
				if !named.Obj().Exported() && !promoted(cp.pkg, o) || s.satisfiesInterface(o) {
					continue
				}
				name = short + "." + named.Obj().Name() + "." + o.Name()
			case *types.Var:
				if !o.IsField() {
					if o.Parent() != cp.pkg.Scope() {
						continue
					}
					name = short + "." + o.Name()
					break
				}
				owner := fieldOwner(cp, id)
				if owner == "" {
					continue
				}
				name = short + "." + owner + "." + o.Name()
			case *types.TypeName, *types.Const:
				if o.Parent() != cp.pkg.Scope() {
					continue
				}
				name = short + "." + o.Name()
			default:
				continue
			}
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// fieldOwner names the exported package-level struct type whose declaration
// holds the field identifier id, or "" when there is none.
func fieldOwner(cp *checkedPkg, id *ast.Ident) string {
	for _, f := range cp.files {
		if id.Pos() < f.Pos() || id.Pos() > f.End() {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE || id.Pos() < gd.Pos() || id.Pos() > gd.End() {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				if id.Pos() < ts.Pos() || id.Pos() > ts.End() {
					continue
				}
				if _, ok := ts.Type.(*ast.StructType); !ok || !ts.Name.IsExported() {
					return ""
				}
				return ts.Name.Name
			}
		}
	}
	return ""
}

// TestOnePublicSurface fails on any exported identifier of internal/ that
// only tests use. A test reaches the code through the entry point production
// uses; a hook only a same-package test needs lives in that package's
// _test.go files. A use in benchmark/ counts, and so does a method that lets
// its type satisfy an interface of the module or the standard library.
func TestOnePublicSurface(t *testing.T) {
	unused := map[string]bool{}
	var bad []string
	for _, name := range loadSurface(t).unused() {
		unused[name] = true
		if !surfaceAllowed[name] {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported identifiers in internal/ have no use outside _test.go files; "+
			"delete them, make their tests drive the production entry point, "+
			"or move the hook into a _test.go file of its package:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for name := range surfaceAllowed {
		if !unused[name] {
			t.Errorf("allow-list entry %s is not a test-only identifier any more; remove it", name)
		}
	}
}

// docRef matches a backticked reference: pkg.Symbol, pkg.Type.Member or
// Type.Member, optionally followed by a call's parentheses.
var docRef = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\\([^`]*\\))?`")

// resolve reports whether ref names a declaration of internal/, and whether
// it is a reference the check applies to at all: an internal/ package
// followed by an exported name, or an exported type of one followed by a
// member. A lowercase name after a package is a metric or span name
// (`remote.put`, `core.reopen_ms`), not a declaration.
func (s *surface) resolve(ref string) (checked, ok bool) {
	seg := strings.Split(ref, ".")
	var pkgs []*types.Package
	for _, cp := range s.internalPkgs() {
		if cp.pkg.Name() == seg[0] {
			pkgs = append(pkgs, cp.pkg)
		}
	}
	if len(pkgs) > 0 {
		if !token.IsExported(seg[1]) {
			return false, false
		}
		for _, p := range pkgs {
			if resolveIn(p, seg[1:]) {
				return true, true
			}
		}
		return true, false
	}
	if len(seg) != 2 || !token.IsExported(seg[0]) {
		return false, false
	}
	for _, cp := range s.internalPkgs() {
		if _, isType := cp.pkg.Scope().Lookup(seg[0]).(*types.TypeName); isType {
			checked = true
			if resolveIn(cp.pkg, seg) {
				return true, true
			}
		}
	}
	return checked, false
}

// resolveIn resolves Symbol, Type.Member or a member of any named type of
// p (a package-qualified method name such as core.RestoreImage).
func resolveIn(p *types.Package, seg []string) bool {
	member := func(tn *types.TypeName, name string) bool {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p, name)
		return obj != nil
	}
	obj := p.Scope().Lookup(seg[0])
	if len(seg) == 2 {
		tn, ok := obj.(*types.TypeName)
		return ok && member(tn, seg[1])
	}
	if obj != nil {
		return true
	}
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && member(tn, seg[0]) {
			return true
		}
	}
	return false
}

// TestDocsCiteOnlyWhatExists resolves every backticked pkg.Symbol,
// pkg.Type.Member and Type.Member of internal/ that the README, the verify
// notes and the benchmark's README cite, so renaming or deleting a cited
// declaration fails here instead of leaving the prose behind.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	s := loadSurface(t)
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md", "benchmark/README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				if checked, ok := s.resolve(m[1]); checked && !ok {
					t.Errorf("%s:%d cites `%s`, which names no declaration in internal/", doc, i+1, m[1])
				}
			}
		}
	}
}

// TestChangesEntrySize keeps each CHANGES.md entry to at most 1 500 bytes: a
// line a reader takes in, not a second README. From PR 51 on, an entry is
// every "- PR n" line with the same n, so a second line ("PR n, checks
// touched") shares its PR's budget; entries 42-50 are held line by line.
func TestChangesEntrySize(t *testing.T) {
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- PR (\d+)`)
	perPR := map[int]int{}
	for i, line := range strings.Split(string(b), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		switch n, _ := strconv.Atoi(m[1]); {
		case n >= 51:
			perPR[n] += len(line)
		case n >= 42 && len(line) > 1500:
			t.Errorf("CHANGES.md:%d (entry %d) is %d bytes, over 1 500", i+1, n, len(line))
		}
	}
	for n, size := range perPR {
		if size > 1500 {
			t.Errorf("CHANGES.md entry %d is %d bytes over its lines, over 1 500", n, size)
		}
	}
}

// structField is an exported field of an exported struct type of internal/.
type structField struct {
	field *types.Var
	owner *types.Struct
	name  string // pkg.Type.Field
}

// fieldsOf returns every exported field of an exported struct type of
// internal/ whose name ends in one of suffixes.
func (s *surface) fieldsOf(suffixes ...string) []structField {
	var out []structField
	for _, cp := range s.internalPkgs() {
		for _, name := range cp.pkg.Scope().Names() {
			tn, ok := cp.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !slices.ContainsFunc(suffixes, func(suf string) bool { return strings.HasSuffix(name, suf) }) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					out = append(out, structField{f, st, cp.pkg.Name() + "." + name + "." + f.Name()})
				}
			}
		}
	}
	return out
}

// readFields returns the fields some non-test file reads: every use of a
// field except as the target of an assignment, ++/--, compound assignment or
// composite-literal key.
func (s *surface) readFields() map[types.Object]bool {
	read := map[types.Object]bool{}
	for _, cp := range s.pkgs {
		written := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					written[x.Sel] = true
				case *ast.Ident:
					written[x] = true
				}
				return
			}
		}
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(x.X)
				case *ast.CompositeLit:
					for _, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range cp.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[origin(obj)] = true
			}
		}
	}
	return read
}

// testSelectors returns every name a _test.go file of the module or of
// benchmark/ selects (x.Name).
func testSelectors() (map[string]bool, error) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(p, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				names[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	return names, err
}

// reflectedStructs returns the struct types reachable by value (through
// fields, arrays and slices, not pointers) from a type package experiment
// declares: its rows, whose every field metrics.Render and encoding/json read
// by reflection.
func (s *surface) reflectedStructs() map[*types.Struct]bool {
	out := map[*types.Struct]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if out[u] {
				return
			}
			out[u] = true
			for i := range u.NumFields() {
				walk(u.Field(i).Type())
			}
		case *types.Array:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		}
	}
	if cp := s.pkgs["repro/internal/experiment"]; cp != nil {
		for _, obj := range cp.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				walk(tn.Type())
			}
		}
	}
	return out
}

// TestEveryCounterIsRead fails on an exported field of an exported *Stats or
// *Report struct of internal/ that nothing reads: a counter is kept only if a
// non-test file of the module or of benchmark/ reads it (writing it is not
// reading it), a _test.go file selects its name, or its struct is part of an
// experiment's rows, which are read by reflection. A counter nobody reads
// costs its upkeep on the hot path and explains nothing.
func TestEveryCounterIsRead(t *testing.T) {
	s := loadSurface(t)
	read := s.readFields()
	selected, err := testSelectors()
	if err != nil {
		t.Fatal(err)
	}
	rows := s.reflectedStructs()
	var bad []string
	for _, c := range s.fieldsOf("Stats", "Report") {
		if !read[c.field] && !selected[c.field.Name()] && !rows[c.owner] {
			bad = append(bad, c.name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d counters are never read; delete each with the code that maintains it:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// knobAllowed are the exported fields of internal/ *Config and *Options
// structs that no production code sets and that stay settable anyway.
var knobAllowed = map[string]bool{
	// Fault injection: the read path's bit-error model, which tests of its
	// error handling turn on, and the seed of its error stream.
	"nand.Config.BitErrorProb": true,
	"nand.Config.Seed":         true,
	// Production sets it two ways without writing it: 3 000 cycles through
	// nand.DefaultConfig in the examples, unlimited (the zero value) in the
	// experiments and the benchmark, which leave it out.
	"nand.Config.EnduranceLimit": true,
}

// writtenFields returns the fields some non-test file writes (as the target
// of an assignment, ++/--, compound assignment or &, or as a composite-literal
// key) outside the Default*, New* and normalize functions of the field's own
// package, which give a field its default rather than choose one.
func (s *surface) writtenFields() map[types.Object]bool {
	written := map[types.Object]bool{}
	for _, cp := range s.pkgs {
		for _, f := range cp.files {
			for _, d := range f.Decls {
				var fn string
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				defaults := strings.HasPrefix(fn, "Default") || strings.HasPrefix(fn, "New") || fn == "normalize"
				mark := func(id *ast.Ident) {
					if v, ok := cp.info.Uses[id].(*types.Var); ok && v.IsField() && !(defaults && v.Pkg() == cp.pkg) {
						written[origin(v)] = true
					}
				}
				// target marks every field on the path of a written
				// expression: writing x.A.B changes x.A too.
				target := func(e ast.Expr) {
					for {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.StarExpr:
							e = x.X
						case *ast.SelectorExpr:
							mark(x.Sel)
							e = x.X
						default:
							return
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							target(lhs)
						}
					case *ast.IncDecStmt:
						target(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							target(x.X)
						}
					case *ast.CompositeLit:
						for _, el := range x.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									mark(id)
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	return written
}

// TestEveryKnobIsSet fails on an exported field of an exported *Config or
// *Options struct of internal/ that production never sets: no non-test file
// of the module or of benchmark/ writes it outside its package's Default*,
// New* and normalize functions. A setting only tests choose is a second
// behaviour production never runs; its default belongs in a constant.
func TestEveryKnobIsSet(t *testing.T) {
	s := loadSurface(t)
	written := s.writtenFields()
	unset := map[string]bool{}
	var bad []string
	for _, k := range s.fieldsOf("Config", "Options") {
		if written[k.field] {
			continue
		}
		unset[k.name] = true
		if !knobAllowed[k.name] {
			bad = append(bad, k.name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d settings are only ever set by tests; make each a constant at its default:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for name := range knobAllowed {
		if !unset[name] {
			t.Errorf("allow-list entry %s is set by production code now; remove it", name)
		}
	}
}
