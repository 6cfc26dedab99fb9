package cxfs_test

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

// callerless names each export under internal/ that no non-test file of the
// module uses, with the reason it stays. Methods are keyed pkg.Type.Method,
// everything else pkg.Name. A test probe is read by tests of other packages
// or checks state no production path exposes; a bench probe is called by the
// benchmark module, which this audit does not read.
var callerless = map[string]string{
	"core.Cache.Get":                "bench probe, ROADMAP item 8: the cache-hit probe (the driver reads the cache by object key)",
	"core.Cache.Len":                "test probe: the lookup tests check the client cache emptied",
	"core.Driver.Cache":             "test probe: the lease and lookup tests reach a client's cache",
	"core.Pending.Done":             "test probe: the pipeline tests check each operation completed",
	"core.Pipeline.Depth":           "test probe: the depth clamp",
	"core.Pipeline.InFlight":        "test probe: the pipeline's admission limit",
	"kvstore.Store.Key":             "test probe: namespace checks the key a row is filed under",
	"kvstore.Store.Put":             "bench probe, ROADMAP item 8",
	"kvstore.Store.Get":             "bench probe, ROADMAP item 8",
	"kvstore.Store.FlushKeys":       "bench probe, ROADMAP item 8",
	"kvstore.Store.Snapshot":        "test probe: the volatile table the store and pressure tests compare",
	"kvstore.Store.DurableSnapshot": "test probe: the on-disk table the store and pressure tests compare",
	"model.Check":                   "test oracle: model and chaos tests judge whole histories with it",
	"namespace.Shard.Store":         "test probe: the namespace tests reach the shard's store",
	"seg.Ring.Len":                  "test probe: the ring's eviction at its cap",
	"seg.Table.Len":                 "test probe: the index tests check the count against their model",
	"simrt.Proc.Name":               "test probe: a reused worker takes its new body's name",
	"simrt.Proc.Yield":              "bench probe, ROADMAP item 8",
	"trace.Trace.CrossServerShare":  "test probe: the profiles' cross-server shares keep the paper's order",
	"transport.Net.Send":            "bench probe, ROADMAP item 8: the send probe (servers and hosts send through Post)",
	"transport.Net.SetTap":          "bench probe, ROADMAP item 8; also the tests' message tap",
	"transport.Net.SetLinkFaults":   "test probe: per-link duplication and delay for the fault tests",
	"transport.Net.Partitioned":     "test probe: the partition state the fault tests set",
	"wal.WAL.GroupLinger":           "test probe: the group-commit window as set",
	"wal.EncodedSize":               "test probe: a record's size on disk, for the log-limit tests",
	"wal.RoundTrip":                 "test probe: a record through encode and decode",
	"wal.SyncDelay":                 "test probe: the ceiling the group-commit timing tests allow",
	"wire.Encode":                   "the byte codec that wire.Size models; its round-trip and fuzz tests pin the two together",
	"wire.Decode":                   "the byte codec that wire.Size models; its round-trip and fuzz tests pin the two together",
	"wire.EncodeTo":                 "bench probe, ROADMAP item 8",
}

// TestEveryExportHasACaller: every exported func, method, type, const and
// package-level var under internal/ is used by a non-test file of the module
// outside its own declaration, or callerless says why it stays. String and
// Error count as called; so does a method that implements an interface
// method some non-test file calls, a type parameter's constraint's included.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)
	var missing []string
	stale := make(map[string]bool, len(callerless))
	for k := range callerless {
		stale[k] = true
	}
	for _, e := range m.exports() {
		if m.used(e) {
			continue
		}
		if _, ok := callerless[e.key]; ok {
			delete(stale, e.key)
			continue
		}
		missing = append(missing, fmt.Sprintf("%s: %s has no caller outside tests", m.where(e.decl.Pos()), e.key))
	}
	for k := range stale {
		missing = append(missing, fmt.Sprintf("callerless names %s, which has a caller or no longer exists", k))
	}
	sort.Strings(missing)
	for _, s := range missing {
		t.Error(s)
	}
}

// module is the module's non-test files, type-checked package by package.
type module struct {
	root  string
	path  string // the module path
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	// recvs are the receiver lists of every method: a type named there is
	// not used by that.
	recvs []ast.Node
	// uses are the identifiers that use each object, and abstract the
	// interface methods non-test code calls, by name.
	uses     map[types.Object][]*ast.Ident
	abstract map[string][]*types.Interface
}

func loadModule(t *testing.T) *module {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	m := &module{
		root: root, path: "cxfs", fset: fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // another module: bench/
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		ipath := filepath.ToSlash(filepath.Join(m.path, rel))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			m.files[ipath] = append(m.files[ipath], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ipath := range m.files {
		if _, err := m.Import(ipath); err != nil {
			t.Fatal(err)
		}
	}
	m.uses = map[types.Object][]*ast.Ident{}
	m.abstract = map[string][]*types.Interface{}
	for id, obj := range m.info.Uses {
		obj = origin(obj)
		m.uses[obj] = append(m.uses[obj], id)
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Signature().Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					if !it.IsMethodSet() { // a type parameter's constraint: what it calls is its methods
						ms := make([]*types.Func, it.NumMethods())
						for i := range ms {
							ms[i] = it.Method(i)
						}
						it = types.NewInterfaceType(ms, nil).Complete()
					}
					m.abstract[f.Name()] = append(m.abstract[f.Name()], it)
				}
			}
		}
	}
	return m
}

// Import type-checks a package of the module from its files, once, and
// leaves everything else to the standard library's sources.
func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				m.recvs = append(m.recvs, fd.Recv)
			}
		}
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// export is one exported declaration under internal/.
type export struct {
	key  string
	obj  types.Object
	decl ast.Node // the declaration: uses inside it are not callers
}

func (m *module) exports() []export {
	var out []export
	for ipath, files := range m.files {
		if !strings.HasPrefix(ipath, m.path+"/internal/") {
			continue
		}
		for _, f := range files {
			pkg := f.Name.Name
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := pkg + "." + d.Name.Name
					if d.Recv != nil {
						key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					out = append(out, export{key, m.info.Defs[d.Name], d})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.IsExported() {
								out = append(out, export{pkg + "." + n.Name, m.info.Defs[n], s})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the type a method's receiver names, without * or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// used reports whether a non-test file uses e outside e's own declaration.
func (m *module) used(e export) bool {
	f, isFunc := e.obj.(*types.Func)
	if isFunc && (f.Name() == "String" || f.Name() == "Error") {
		return true
	}
	for _, id := range m.uses[e.obj] {
		if within(id, e.decl) {
			continue
		}
		if _, isType := e.obj.(*types.TypeName); isType && m.inReceiver(id) {
			continue
		}
		return true
	}
	if isFunc && f.Signature().Recv() != nil {
		recv := f.Signature().Recv().Type()
		if _, ptr := recv.(*types.Pointer); !ptr {
			recv = types.NewPointer(recv)
		}
		for _, it := range m.abstract[f.Name()] {
			if types.Implements(recv, it) {
				return true
			}
		}
	}
	return false
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

func within(id *ast.Ident, n ast.Node) bool { return n.Pos() <= id.Pos() && id.End() <= n.End() }

func (m *module) inReceiver(id *ast.Ident) bool {
	for _, r := range m.recvs {
		if within(id, r) {
			return true
		}
	}
	return false
}

func (m *module) where(pos token.Pos) string {
	p := m.fset.Position(pos)
	rel, err := filepath.Rel(m.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}
