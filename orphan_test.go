package repro

import (
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
	"sort"
	"strings"
	"testing"
)

// orphanAllowlist names the exported internal/ identifiers that stay
// although no non-test file references them, one reason each. An entry
// whose identifier gains a caller (or disappears) fails the test as stale.
var orphanAllowlist = map[string]string{
	"internal/approx.MultCompressor.EncodeRandomized": "the definition of [·]_R: reference of core/oracle_test.go (oracleEncodeHop) and approx TestRandomizedPartsMatchEncodeRandomized",
	"internal/wire.AppendFrame":                       "the obvious frame encoder: oracle of segstore/oracle_test.go (appendBlock), wire TestAppendMarshalFrame and collector/failure_test.go's hand-built frames",
}

// TestNoOrphanExports is the caller audit as a tier-1 test: every exported
// function, method, type, constant, variable and interface method declared
// in a non-test file under internal/ must be referenced by some non-test
// file of the module (cmd/ including the pintbench module, examples/,
// internal/). References are resolved by object, not by name, so a
// Sink.Path nobody calls is not saved by a Recording.Path somebody does.
// A name is in the tree because something runs it; what only tests reach
// is deleted or lives in a _test.go file. Struct fields are not audited.
//
// Exempt by rule: a method that an interface the type implements also
// declares (UnmarshalJSON, WriteHeader, Read, Close, Less, String, Error
// and the module's own interfaces), since it is called through the
// interface.
//
// Settings get the same rule one level down: every exported field of an
// exported internal/ struct type whose name ends in Config is a setting,
// and a non-test file must set it — as a composite-literal key or on the
// left of an assignment. A setting only tests turn on is a mode no program runs.
func TestNoOrphanExports(t *testing.T) {
	orphans, unset, audited, err := orphanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unset {
		t.Errorf("%s is a setting no non-test file sets: give it a program or make it a constant", u)
	}
	// CI's line-count step prints this next to the LoC table.
	t.Logf("audited %d exported identifiers under internal/", audited)
	seen := map[string]bool{}
	for _, o := range orphans {
		seen[o] = true
		if _, ok := orphanAllowlist[o]; !ok {
			t.Errorf("%s is exported but no non-test file references it: delete it, unexport it, or move it into the _test.go file that uses it", o)
		}
	}
	for name := range orphanAllowlist {
		if !seen[name] {
			t.Errorf("stale allowlist entry %s: it has a non-test reference or no longer exists", name)
		}
	}
	// The budget is a bound, not room: raising it is the reviewed change a
	// new entry needs.
	if len(orphanAllowlist) > 4 {
		t.Errorf("allowlist holds %d entries, budget is 4", len(orphanAllowlist))
	}
}

// TestOrphanAuditCatches runs the audit on a small module: an export with
// a caller, an interface method reached only through the interface, and
// `func Orphan()`, which only a test calls. Orphan and the method nobody
// calls must be the names reported. Its Config
// has a field a program sets by key, one it sets by assignment, one only a
// test sets and an unexported one, and its PoolConfig a field nobody sets:
// the test-only field and PoolConfig's are the unset settings.
func TestOrphanAuditCatches(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module tiny\n\ngo 1.23\n",
		"internal/x/x.go": `package x

import "fmt"

type T struct{ N int }

func (T) String() string { return "t" }
func (T) Lost()          {}

func Used() fmt.Stringer { return T{N: 1} }
func Orphan()            {}

type Config struct {
	Keyed, Assigned, TestOnly int
	hidden                    int
}

func New(c Config) int { c.Assigned = 2; return c.Keyed + c.hidden }

type PoolConfig struct{ Size int }

func Pool(c PoolConfig) int { return c.Size }
`,
		"internal/x/x_test.go": "package x\n\nfunc init() { Orphan(); _ = Config{TestOnly: 1} }\n",
		"cmd/y/main.go":        "package main\n\nimport \"tiny/internal/x\"\n\nfunc main() { println(x.Used().String(), x.New(x.Config{Keyed: 1}), x.Pool(x.PoolConfig{})) }\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, unset, audited, err := orphanExports(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/x.Orphan", "internal/x.T.Lost"}
	if fmt.Sprint(got) != fmt.Sprint(want) || audited != 9 {
		t.Fatalf("orphans = %v of %d audited, want %v of 9 (T, String, Lost, Used, Orphan, Config, New, PoolConfig, Pool)", got, audited, want)
	}
	if want := []string{"internal/x.Config.TestOnly", "internal/x.PoolConfig.Size"}; fmt.Sprint(unset) != fmt.Sprint(want) {
		t.Fatalf("unset settings = %v, want %v", unset, want)
	}
}

// TestOneBuildPerFile keeps a second implementation from returning behind
// a build selector no benchmark sets: the tree holds no assembly, and the
// only build constraints are the race/!race pairs that tell four
// packages' allocation tests whether the race runtime is inflating their
// counts.
func TestOneBuildPerFile(t *testing.T) {
	constrained := map[string]bool{
		"internal/collector/race_enabled_test.go":  true,
		"internal/collector/race_disabled_test.go": true,
		"internal/core/race_enabled_test.go":       true,
		"internal/core/race_disabled_test.go":      true,
		"internal/pipeline/race_enabled_test.go":   true,
		"internal/pipeline/race_disabled_test.go":  true,
		"internal/segstore/race_enabled_test.go":   true,
		"internal/segstore/race_disabled_test.go":  true,
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && d.Name()[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".s":
			t.Errorf("%s: assembly; a kernel is one Go loop that cmd/pintbench's layer suite times", p)
		case ".go":
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			header, _, _ := strings.Cut("\n"+string(src), "\npackage ")
			tagged := strings.Contains(header, "\n//go:build") || strings.Contains(header, "\n// +build")
			if tagged != constrained[filepath.ToSlash(p)] {
				t.Errorf("%s: build constraint present = %v, want %v", p, tagged, !tagged)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScenarioImportsNoCollectorStack holds the line between the paper's
// figures and the system around them: scenarios reproduce the paper, so
// a scenario records digests into a core.Recording, and the collector
// stack (wire format, sharded sink, daemons, fleet, log, admission) is
// tested by its own packages. No non-test file of internal/scenario may
// import one of them.
func TestScenarioImportsNoCollectorStack(t *testing.T) {
	stack := map[string]bool{}
	for _, p := range []string{"pipeline", "wire", "collector", "federation", "segstore", "admit"} {
		stack["repro/internal/"+p] = true
	}
	files, err := filepath.Glob("internal/scenario/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files under internal/scenario")
	}
	fset := token.NewFileSet()
	for _, p := range files {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); stack[path] {
				t.Errorf("%s imports %s: a scenario records into a core.Recording; the collector stack is tested in its own package", p, path)
			}
		}
	}
}

// orphanExports type-checks every package under root (test files and
// build-excluded files left out) and returns, sorted, the exported
// identifiers declared under internal/ that nothing references, the
// settings (see TestNoOrphanExports) nothing sets, and how many exported
// identifiers it audited.
func orphanExports(root string) (orphans, unset []string, audited int, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, 0, err
	}
	modPath := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]

	a := &audit{
		fset:   token.NewFileSet(),
		dirs:   map[string]string{},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		stdlib: importer.ForCompiler(token.NewFileSet(), "source", nil),
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err == nil {
			rel, _ := filepath.Rel(root, p)
			a.dirs[filepath.ToSlash(filepath.Join(modPath, rel))] = p
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	for path := range a.dirs {
		if _, err := a.Import(path); err != nil {
			return nil, nil, 0, err
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range a.info.Uses {
		used[origin(obj)] = true
	}
	ifaces := a.interfaces()
	for id, obj := range a.info.Defs {
		if obj == nil || !id.IsExported() ||
			!strings.HasPrefix(obj.Pkg().Path(), modPath+"/internal/") {
			continue
		}
		name := strings.TrimPrefix(obj.Pkg().Path(), modPath+"/") + "."
		byRule := false
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				byRule = calledThroughInterface(recv.Type(), o.Name(), ifaces)
				name += typeName(recv.Type()) + "."
			}
		default:
			if obj.Parent() != obj.Pkg().Scope() {
				continue // a struct field, parameter or local
			}
		}
		audited++
		if !used[obj] && !byRule {
			orphans = append(orphans, name+obj.Name())
		}
	}
	sort.Strings(orphans)
	return orphans, a.unsetSettings(modPath), audited, nil
}

// unsetSettings returns, sorted, every exported field of an exported
// struct type whose name ends in Config declared under internal/ that no
// non-test file sets: none names it as a composite-literal key or assigns
// to it.
func (a *audit) unsetSettings(modPath string) []string {
	set := map[types.Object]bool{}
	for _, files := range a.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set[a.info.Uses[id]] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set[a.info.Uses[sel.Sel]] = true
						}
					}
				}
				return true
			})
		}
	}
	var unset []string
	for path, pkg := range a.pkgs {
		if !strings.HasPrefix(path, modPath+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset = append(unset, strings.TrimPrefix(path, modPath+"/")+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	return unset
}

type audit struct {
	fset   *token.FileSet
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File // import path -> its non-test files
	stdlib types.Importer
	info   *types.Info
}

// Import serves the module's own packages from source and everything else
// from the standard library.
func (a *audit) Import(path string) (*types.Package, error) {
	dir, ok := a.dirs[path]
	if !ok {
		return a.stdlib.Import(path)
	}
	if pkg, ok := a.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: a}).Check(path, a.fset, files, a.info)
	if err != nil {
		return nil, err
	}
	a.pkgs[path], a.files[path] = pkg, files
	return pkg, nil
}

// interfaces returns every named interface type a module package can see:
// its own and those of the packages it imports, transitively.
func (a *audit) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			// Generic interfaces are constraints, not call surfaces.
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
				if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range a.pkgs {
		visit(p)
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

func calledThroughInterface(recv types.Type, method string, ifaces []*types.Interface) bool {
	ptr := recv
	if _, ok := recv.(*types.Pointer); !ok {
		ptr = types.NewPointer(recv)
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
