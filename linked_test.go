package wfreach_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedFixtures are non-test functions that only tests call: the
// random grammars and graphs the tests of several packages share, and
// the benchmark's manifest, which its tests hold BENCHMARK.json to.
var unlinkedFixtures = map[string]bool{
	"wfreach/internal/wfspecs.RandomSpec": true,
	"wfreach/internal/graph.RandomDAG":    true,
	"wfreach/benchmark.theManifest":       true,
}

// libraryPackages are the module's libraries for users: their exported
// names need no binary in this module to link them.
var libraryPackages = map[string]bool{
	"wfreach":        true,
	"wfreach/client": true,
}

// TestEveryFunctionIsLinked keeps non-test code to code a binary runs.
// It builds every main package of the module without inlining, reads
// the functions each binary links from its symbol table, and fails on
// any function declared in a non-test file that none of them links,
// apart from the exported names of libraryPackages and unlinkedFixtures.
// Functions only the benchmark links are logged, not failed.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pkgs := goList(t)
	var mains []string
	for _, p := range pkgs {
		if p.name == "main" {
			mains = append(mains, p.path)
		}
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + "/"}, mains...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linkedBy := map[string][]string{} // declaration key → main packages linking it
	for _, m := range mains {
		for key := range linkedSymbols(t, filepath.Join(bin, filepath.Base(m)), m) {
			linkedBy[key] = append(linkedBy[key], m)
		}
	}

	var unlinked, benchOnly []string
	for _, p := range pkgs {
		for _, d := range declaredFuncs(t, p) {
			by := linkedBy[d.key]
			switch {
			case len(by) == 0 && !unlinkedFixtures[d.key] && !(libraryPackages[p.path] && d.exported):
				unlinked = append(unlinked, d.key+" ("+d.pos+")")
			case len(by) == 1 && by[0] == "wfreach/benchmark" && p.path != by[0]:
				benchOnly = append(benchOnly, d.key)
			}
		}
	}
	sort.Strings(benchOnly)
	t.Logf("%d functions are linked only by the benchmark:\n\t%s", len(benchOnly), strings.Join(benchOnly, "\n\t"))
	if len(unlinked) > 0 {
		sort.Strings(unlinked)
		t.Errorf("%d non-test functions are linked by no binary; delete them, or move them into the _test.go files that use them:\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
}

type goPackage struct {
	path, name, dir string
	files           []string
}

// goList lists the module's packages with the non-test files the
// current build includes.
func goList(t *testing.T) []goPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []goPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, goPackage{path: f[0], name: f[1], dir: f[2], files: f[3:]})
	}
	return pkgs
}

type funcDecl struct {
	key, pos string
	exported bool
}

// declaredFuncs lists the functions and methods declared in p's
// non-test files, keyed as linkedSymbols keys them.
func declaredFuncs(t *testing.T, p goPackage) []funcDecl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []funcDecl
	for _, name := range p.files {
		f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			key := p.path + "."
			if fd.Recv != nil {
				key += recvTypeName(fd.Recv.List[0].Type) + "."
			}
			key += fd.Name.Name
			decls = append(decls, funcDecl{
				key:      key,
				pos:      fset.Position(fd.Pos()).String(),
				exported: fd.Name.IsExported(),
			})
		}
	}
	return decls
}

// recvTypeName is the bare type name of a receiver: *T, T[E] and
// *T[E, F] are all T.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// linkedSymbols reads the binary's symbol table and returns the
// declaration keys of the functions it links. The main package's
// symbols are keyed under mainPath. A symbol name is read whole, since
// the shapes of generic instantiations contain spaces; pkg.f[…],
// pkg..dict.f[…] and pkg.(*T[…]).m map to pkg.f and pkg.T.m.
func linkedSymbols(t *testing.T, binary, mainPath string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", binary).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", binary, err)
	}
	keys := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		// "<address> <type> <name>", or "<type> <name>" for an undefined symbol.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) < 3 {
			continue
		}
		name := strings.Replace(stripTypeArgs(f[2]), "..dict.", ".", 1)
		slash := strings.LastIndex(name, "/")
		dot := strings.Index(name[slash+1:], ".")
		if dot < 0 {
			continue
		}
		pkg, rest := name[:slash+1+dot], name[slash+1+dot+1:]
		if pkg == "main" {
			pkg = mainPath
		}
		if strings.HasPrefix(rest, "(*") {
			rest = strings.Replace(strings.TrimPrefix(rest, "(*"), ")", "", 1)
		}
		keys[pkg+"."+rest] = true
	}
	return keys
}

// stripTypeArgs removes every bracketed type-argument list from a
// symbol name.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
