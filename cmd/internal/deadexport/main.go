// Command deadexport fails when an exported name declared under internal/
// has no reference from a non-test file of the module:
//
//	go run ./cmd/internal/deadexport <module-dir> <allowlist>
//
// It type-checks the module's non-test packages. An exported package-level
// identifier, method or struct field under internal/ is referenced when a
// non-test identifier (cmd/, bench/ and examples/ included) resolves to it
// outside its own declaration and method receivers, when an unkeyed struct
// literal fills it, or when a type implements an interface through it. An
// allowlist line is a name as printed, a space and the reason it stays: at
// most maxAllowed, and a line whose name is not reported fails too.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const maxAllowed = 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("deadexport: ")
	if len(os.Args) != 3 {
		log.Fatal("usage: deadexport <module-dir> <allowlist>")
	}
	problems, err := check(os.Args[1], os.Args[2])
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		log.Fatalf("delete the code, or allowlist it in %s with the test that needs it", os.Args[2])
	}
}

// decl is one checked name and the span of its declaration.
type decl struct {
	name     string
	pos, end token.Pos
	used     bool
}

// check returns a line per unreferenced name, then per stale allowlist line.
func check(root, allowPath string) ([]string, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	fset, mod, pkgs, err := load(root)
	if err != nil {
		return nil, err
	}
	decls := map[types.Object]*decl{}
	mark := func(obj types.Object, at token.Pos) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a method of a generic type's instance
		} else if v, ok := obj.(*types.Var); ok {
			obj = v.Origin()
		}
		if d := decls[obj]; d != nil && (at < d.pos || at >= d.end) {
			d.used = true
		}
	}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.tpkg.Path(), mod+"/")
		add := func(id *ast.Ident, name string, n ast.Node) {
			if id.IsExported() && strings.HasPrefix(rel+"/", "internal/") {
				decls[p.info.Defs[id]] = &decl{name: rel + "." + name, pos: n.Pos(), end: n.End()}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv := p.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
					add(fd.Name, strings.TrimPrefix(types.TypeString(recv, func(*types.Package) string { return "" }), "*")+"."+fd.Name.Name, fd)
				} else if ok {
					add(fd.Name, fd.Name.Name, fd)
				} else {
					for _, s := range d.(*ast.GenDecl).Specs {
						if vs, ok := s.(*ast.ValueSpec); ok {
							for _, id := range vs.Names {
								add(id, id.Name, vs)
							}
						} else if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name, ts.Name.Name, ts)
							if st, ok := ts.Type.(*ast.StructType); ok {
								for _, fld := range st.Fields.List {
									for _, id := range fld.Names {
										add(id, ts.Name.Name+"."+id.Name, fld)
									}
								}
							}
						}
					}
				}
			}
		}
		// Uses: the package's dependencies came first, so decls is complete.
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := p.info.Uses[n]; obj != nil {
					mark(obj, n.Pos())
				}
			case *ast.FuncDecl: // skip the receiver: it is no use of its type
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.CompositeLit:
				if st, ok := p.info.TypeOf(n).Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							mark(st.Field(i), n.Pos())
						}
					}
				}
			}
			return true
		}
		for _, f := range p.files {
			ast.Inspect(f, visit)
		}
	}
	markInterfaceMethods(pkgs, mark)

	var dead []*decl
	for _, d := range decls {
		if !d.used && !allow[d.name] {
			dead = append(dead, d)
		} else if !d.used {
			delete(allow, d.name)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	var out, stale []string
	for _, d := range dead {
		pos := fset.Position(d.pos)
		out = append(out, fmt.Sprintf("%s:%d: %s has no non-test reference", pos.Filename, pos.Line, d.name))
	}
	for name := range allow {
		stale = append(stale, fmt.Sprintf("%s: %s is referenced or gone; drop its line", allowPath, name))
	}
	sort.Strings(stale)
	return append(out, stale...), nil
}

// markInterfaceMethods marks every method through which a module type
// implements an interface of a loaded package, or error: fmt, sort or
// encoding/gob call it through the interface, without naming it.
func markInterfaceMethods(pkgs []*pkg, mark func(types.Object, token.Pos)) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named // the module's
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package, own bool)
	walk = func(tp *types.Package, own bool) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, n := range tp.Scope().Names() {
			obj := tp.Scope().Lookup(n)
			nt, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || nt.TypeParams() != nil {
				continue
			} else if it, ok := nt.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if own {
				named = append(named, nt)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp, false)
		}
	}
	for _, p := range pkgs { // dependencies first: each is walked as the module's own
		walk(p.tpkg, true)
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
				mark(obj, token.NoPos)
			}
		}
	}
}

func readAllowlist(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if name == "" || name[0] == '#' {
			continue
		} else if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		allow[name] = true
	}
	if err == nil && len(allow) > maxAllowed {
		err = fmt.Errorf("%s: %d names, at most %d", path, len(allow), maxAllowed)
	}
	return allow, err
}

type pkg struct {
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load parses and type-checks the non-test files of every package under
// root, the standard library from source; dependencies come first.
func load(root string) (*token.FileSet, string, []*pkg, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, "", nil, err
	}
	_, rest, _ := strings.Cut(string(gomod), "module ")
	mod, _, _ := strings.Cut(rest, "\n")
	mod = strings.Trim(strings.TrimSpace(mod), `"`)
	fset, byPath, paths := token.NewFileSet(), map[string]*pkg{}, []string(nil)
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || n == "vendor" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path, p := strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."), &pkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		byPath[path], paths = p, append(paths, path)
		return nil
	})
	if err != nil {
		return nil, "", nil, err
	}
	std := importer.ForCompiler(fset, "source", nil)
	var order []*pkg
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p := byPath[path]
		if p == nil {
			return std.Import(path)
		} else if p.tpkg == nil {
			p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			var err error
			if p.tpkg, err = (&types.Config{Importer: imp}).Check(path, fset, p.files, p.info); err != nil {
				return nil, err
			}
			order = append(order, p)
		}
		return p.tpkg, nil
	}
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			return nil, "", nil, err
		}
	}
	return fset, mod, order, nil
}
