// Command apisnap prints the exported API surface of a Go package as a
// sorted, deterministic set of lines — one per exported constant,
// variable, function, type, method, struct field, or interface method.
// The committed snapshot (api/nbbs.txt for the root nbbs package) is a
// CI gate: a PR that changes the public surface must regenerate the
// file, which makes every API change an explicit, reviewable diff
// rather than an accident.
//
// Regenerate with:
//
//	go run ./cmd/apisnap > api/nbbs.txt
//
// The snapshot is purely syntactic (go/ast, no type checking): what it
// pins is the declared surface as written, including parameter names —
// renames show up as diffs on purpose, they are part of the documented
// API. An alias of a struct in another package of the same module
// (type X = pkg.Y) is followed: the snapshot lists Y's exported fields
// under X, written as Y's source writes them, so a field added to or
// removed from the target shows up as a diff of the aliasing package.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "package directory to snapshot")
	flag.Parse()
	lines, err := snapshot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apisnap:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// parsePackage parses the non-test Go files of a directory.
func parsePackage(fset *token.FileSet, dir string) (map[string]*ast.Package, error) {
	return parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
}

func snapshot(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parsePackage(fset, dir)
	if err != nil {
		return nil, err
	}
	mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") || name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv != nil {
						recv := render(fset, d.Recv.List[0].Type)
						if !ast.IsExported(strings.TrimLeft(recv, "*")) {
							continue
						}
						add("method (%s) %s%s", recv, d.Name.Name, signature(fset, d.Type))
					} else {
						add("func %s%s", d.Name.Name, signature(fset, d.Type))
					}
				case *ast.GenDecl:
					switch d.Tok {
					case token.CONST, token.VAR:
						kw := "const"
						if d.Tok == token.VAR {
							kw = "var"
						}
						for _, spec := range d.Specs {
							vs := spec.(*ast.ValueSpec)
							for _, n := range vs.Names {
								if !n.IsExported() {
									continue
								}
								if vs.Type != nil {
									add("%s %s %s", kw, n.Name, render(fset, vs.Type))
								} else {
									add("%s %s", kw, n.Name)
								}
							}
						}
					case token.TYPE:
						for _, spec := range d.Specs {
							ts := spec.(*ast.TypeSpec)
							lines = append(lines, typeLines(fset, ts)...)
							fields, err := mod.aliasFields(fset, f, ts)
							if err != nil {
								return nil, err
							}
							lines = append(lines, fields...)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	// Duplicate lines collapse (e.g. a const block re-declared per file
	// would otherwise double up).
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out, nil
}

// module locates the packages of the Go module a snapshot is taken in.
type module struct{ path, root string } // the go.mod module path and its directory

// findModule walks up from dir to the nearest go.mod. Outside a module
// the zero module follows no alias.
func findModule(dir string) (module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return module{}, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return module{path: strings.Trim(strings.TrimSpace(rest), `"`), root: d}, nil
				}
			}
			return module{}, fmt.Errorf("%s: no module line", filepath.Join(d, "go.mod"))
		}
		if filepath.Dir(d) == d {
			return module{}, nil
		}
	}
}

// aliasFields returns the field lines of an exported alias whose target
// is a struct type of another package in this module, reached through
// one of f's imports; every other declaration yields none.
func (m module) aliasFields(fset *token.FileSet, f *ast.File, ts *ast.TypeSpec) ([]string, error) {
	sel, ok := ts.Type.(*ast.SelectorExpr)
	if m.path == "" || ts.Assign == token.NoPos || !ts.Name.IsExported() || !ok {
		return nil, nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		rel, inModule := strings.CutPrefix(path, m.path+"/")
		if name != pkg.Name || !inModule {
			continue
		}
		pkgs, err := parsePackage(fset, filepath.Join(m.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			for _, file := range p.Files {
				if target := lookupType(file, sel.Sel.Name); target != nil {
					if _, isStruct := target.Type.(*ast.StructType); !isStruct || target.Assign != token.NoPos {
						return nil, nil
					}
					renamed := *target
					renamed.Name = ts.Name
					return typeLines(fset, &renamed)[1:], nil
				}
			}
		}
	}
	return nil, nil
}

// lookupType finds a type declaration by name in one file.
func lookupType(f *ast.File, name string) *ast.TypeSpec {
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
			for _, spec := range d.Specs {
				if ts := spec.(*ast.TypeSpec); ts.Name.Name == name {
					return ts
				}
			}
		}
	}
	return nil
}

// typeLines flattens one exported type declaration: the type line
// itself, plus one line per exported struct field or interface method.
func typeLines(fset *token.FileSet, ts *ast.TypeSpec) []string {
	if !ts.Name.IsExported() {
		return nil
	}
	name := ts.Name.Name
	if ts.Assign != token.NoPos {
		return []string{fmt.Sprintf("type %s = %s", name, render(fset, ts.Type))}
	}
	var out []string
	switch t := ts.Type.(type) {
	case *ast.StructType:
		out = append(out, fmt.Sprintf("type %s struct", name))
		for _, field := range t.Fields.List {
			if len(field.Names) == 0 { // embedded
				typ := render(fset, field.Type)
				if ast.IsExported(strings.TrimLeft(typ, "*")) {
					out = append(out, fmt.Sprintf("type %s struct, embedded %s", name, typ))
				}
				continue
			}
			for _, n := range field.Names {
				if n.IsExported() {
					out = append(out, fmt.Sprintf("type %s struct, %s %s", name, n.Name, render(fset, field.Type)))
				}
			}
		}
	case *ast.InterfaceType:
		out = append(out, fmt.Sprintf("type %s interface", name))
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 { // embedded interface
				out = append(out, fmt.Sprintf("type %s interface, embedded %s", name, render(fset, m.Type)))
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					out = append(out, fmt.Sprintf("type %s interface, %s%s", name, n.Name, signature(fset, m.Type.(*ast.FuncType))))
				}
			}
		}
	default:
		out = append(out, fmt.Sprintf("type %s %s", name, render(fset, ts.Type)))
	}
	return out
}

// signature renders a function type without the leading "func" keyword.
func signature(fset *token.FileSet, ft *ast.FuncType) string {
	return strings.TrimPrefix(render(fset, ft), "func")
}

func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		panic(err)
	}
	// Multi-line renderings (an inline struct literal type, say) collapse
	// to one canonical line so the snapshot stays line-oriented.
	return strings.Join(strings.Fields(buf.String()), " ")
}
