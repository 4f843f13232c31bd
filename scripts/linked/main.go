// Command linked lists the functions that no shipped binary links.
//
// It builds every root of a module with inlining off (-gcflags=all=-l),
// so that each function a binary can run keeps its own symbol, and
// compares the binaries' `go tool nm` symbols with every non-test func
// declaration of the module's packages. The roots are:
//
//   - every main package of the module (cmd/, examples/, scripts/);
//   - every main package of a module nested below it (bench/);
//   - a generated main that references every exported function of the
//     module's root package (the facade) and every exported method of the
//     concrete types that package defines or aliases. Interface methods
//     have no body to judge.
//
// Each function that is in no binary is printed as "file:line: Name", in
// file and line order, where Name is "F" or "T.M"; generic symbols are
// matched with their type arguments stripped. Functions matched by the
// allow list are kept on purpose and not printed. Each allow line is a pattern and a reason: the pattern is
// "file:Name" as printed without the line number, or a prefix of it that
// ends in "/" (a directory) or ":" (a file). A line without a reason is
// an error, and so is a pattern that matches nothing still unlinked.
//
// Usage:
//
//	go run ./scripts/linked [-allow scripts/linked.allow] [dir]
//
// Exit status: 0 when nothing is printed, 1 when something is, 2 when a
// build or the allow list fails.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("linked", flag.ContinueOnError)
	fset.SetOutput(stderr)
	allowPath := fset.String("allow", "scripts/linked.allow", "allow list: a `file:Name` pattern and a reason per line")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	root := "."
	if fset.NArg() > 1 {
		fmt.Fprintln(stderr, "linked: at most one module directory")
		return 2
	} else if fset.NArg() == 1 {
		root = fset.Arg(0)
	}
	allow, err := readAllow(*allowPath)
	if err == nil {
		var lines []string
		if lines, err = check(root, allow); err == nil {
			for _, l := range lines {
				fmt.Fprintln(stdout, l)
			}
			if len(lines) > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "linked: %v\n", err)
	return 2
}

// allowLine is one pattern of the allow list.
type allowLine struct {
	where   string // "file:line" of the allow line, for diagnostics
	pattern string
	used    bool
}

func readAllow(path string) ([]*allowLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*allowLine
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		where := fmt.Sprintf("%s:%d", path, i+1)
		if len(f) < 2 {
			return nil, fmt.Errorf("%s: %s has no reason", where, f[0])
		}
		out = append(out, &allowLine{where: where, pattern: f[0]})
	}
	return out, nil
}

func (a *allowLine) matches(id string) bool {
	if strings.HasSuffix(a.pattern, "/") || strings.HasSuffix(a.pattern, ":") {
		return strings.HasPrefix(id, a.pattern)
	}
	return id == a.pattern
}

// decl is one func declaration with a body.
type decl struct {
	file string // relative to the module root, slash-separated
	line int
	id   string // file:Name, the allow-list key
	sym  string // its linker symbol, normalised as by normSym
	name string // Name as printed: F or T.M
}

// pkg is one package of the module as go list reports it.
type pkg struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

// method is an exported method found by the scan, for the facade main.
type method struct {
	name string
	ptr  bool
}

func check(root string, allow []*allowLine) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := listPackages(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "linked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	decls, methods, err := scan(root, pkgs)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	mods, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range mods {
		sub := pkgs
		if dir != root {
			if sub, err = listPackages(dir); err != nil {
				return nil, err
			}
		}
		for _, p := range sub {
			if p.Name == "main" {
				if err := link(linked, dir, p.ImportPath, p.ImportPath, tmp); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, p := range pkgs {
		if p.Dir == root && p.Name != "main" {
			dir, err := facadeMain(root, p, pkgs, methods, tmp)
			if err != nil {
				return nil, err
			}
			if err := link(linked, dir, ".", "", tmp); err != nil {
				return nil, err
			}
		}
	}

	sort.Slice(decls, func(a, b int) bool {
		if decls[a].file != decls[b].file {
			return decls[a].file < decls[b].file
		}
		return decls[a].line < decls[b].line
	})
	var out []string
	for _, d := range decls {
		if linked[d.sym] {
			continue
		}
		kept := false
		for _, a := range allow {
			if a.matches(d.id) {
				a.used, kept = true, true
			}
		}
		if !kept {
			out = append(out, fmt.Sprintf("%s:%d: %s", d.file, d.line, d.name))
		}
	}
	for _, a := range allow {
		if !a.used {
			out = append(out, a.where+": "+a.pattern+" matches no unlinked function")
		}
	}
	return out, nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out, nil
}

func listPackages(dir string) ([]pkg, error) {
	out, err := goCmd(dir, "list", "-f", `{{.ImportPath}}	{{.Name}}	{{.Dir}}	{{join .GoFiles " "}}`, "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, pkg{ImportPath: f[0], Name: f[1], Dir: f[2], GoFiles: strings.Fields(f[3])})
	}
	return pkgs, nil
}

// moduleDirs returns root and the directories below it that hold their
// own go.mod, skipping testdata and hidden directories.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == root {
			return nil
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// scan parses every package's non-test files. It returns each func
// declaration with a body, and the exported methods of every type, keyed
// by "importpath.Type".
func scan(root string, pkgs []pkg) ([]decl, map[string][]method, error) {
	fset := token.NewFileSet()
	var decls []decl
	methods := map[string][]method{}
	for _, p := range pkgs {
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return nil, nil, err
			}
			rel = filepath.ToSlash(rel)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				shown := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					typ, ptr, generic := recvType(fd.Recv.List[0].Type)
					shown = typ + "." + shown
					if fd.Name.IsExported() && !generic {
						key := p.ImportPath + "." + typ
						methods[key] = append(methods[key], method{name: fd.Name.Name, ptr: ptr})
					}
				}
				decls = append(decls, decl{
					file: rel,
					line: fset.Position(fd.Pos()).Line,
					id:   rel + ":" + shown,
					sym:  p.ImportPath + "." + shown,
					name: shown,
				})
			}
		}
	}
	return decls, methods, nil
}

// recvType returns a receiver's base type name, whether it is a pointer,
// and whether the type is generic.
func recvType(e ast.Expr) (name string, ptr, generic bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e, generic = t.X, true
	case *ast.IndexListExpr:
		e, generic = t.X, true
	}
	if id, ok := e.(*ast.Ident); ok {
		name = id.Name
	}
	return name, ptr, generic
}

// facadeMain writes a module beside tmp whose main references every
// exported function of the facade package p and every exported method of
// the concrete types it defines or aliases, and returns its directory.
func facadeMain(root string, p pkg, pkgs []pkg, methods map[string][]method, tmp string) (string, error) {
	// The facade module must declare at least the root module's go version.
	goVersion, err := goCmd(root, "list", "-m", "-f", "{{.GoVersion}}")
	if err != nil {
		return "", err
	}
	names := map[string]string{} // import path -> package name
	for _, q := range pkgs {
		names[q.ImportPath] = q.Name
	}
	var refs []string
	addMethods := func(typ, key string) {
		for _, m := range methods[key] {
			if m.ptr {
				refs = append(refs, fmt.Sprintf("(*facade.%s).%s", typ, m.name))
			} else {
				refs = append(refs, fmt.Sprintf("facade.%s.%s", typ, m.name))
			}
		}
	}
	fset := token.NewFileSet()
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return "", err
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			local := names[path]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = path
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && d.Type.TypeParams == nil {
					refs = append(refs, "facade."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || ts.TypeParams != nil {
						continue
					}
					if !ts.Assign.IsValid() {
						addMethods(ts.Name.Name, p.ImportPath+"."+ts.Name.Name)
					} else if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok {
							addMethods(ts.Name.Name, imports[x.Name]+"."+sel.Sel.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(refs)
	var src strings.Builder
	fmt.Fprintf(&src, "package main\n\nimport facade %q\n\n// Sink keeps every facade entry point live.\nvar Sink []any\n\nfunc main() {\n\tSink = []any{\n", p.ImportPath)
	for _, r := range refs {
		fmt.Fprintf(&src, "\t\t%s,\n", r)
	}
	src.WriteString("\t}\n}\n")
	dir := filepath.Join(tmp, "facade")
	// The root package's import path is the module path.
	gomod := fmt.Sprintf("module linkedfacade\n\ngo %s\n\nrequire %s v0.0.0\n\nreplace %s => %s\n",
		strings.TrimSpace(string(goVersion)), p.ImportPath, p.ImportPath, root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return "", err
	}
	return dir, os.WriteFile(filepath.Join(dir, "main.go"), []byte(src.String()), 0o644)
}

// link builds target in dir with inlining off and adds its function
// symbols to linked. A main package's own symbols are named "main.F" by
// the linker; they are recorded under mainPath instead.
func link(linked map[string]bool, dir, target, mainPath, tmp string) error {
	bin := filepath.Join(tmp, "bin")
	if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", bin, target); err != nil {
		return err
	}
	out, err := goCmd(dir, "tool", "nm", bin)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := normSym(strings.Join(f[2:], " "))
		if rest, ok := strings.CutPrefix(sym, "main."); ok {
			sym = mainPath + "." + rest
		}
		linked[sym] = true
	}
	return sc.Err()
}

// normSym strips generic type arguments and pointer-receiver syntax from
// a linker symbol: "p.(*T[go.shape.int]).M" becomes "p.T.M".
func normSym(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}
