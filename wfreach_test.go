package wfreach_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"wfreach"
	"wfreach/internal/spec"
)

// Example demonstrates end-to-end use of the public API on the paper's
// running example: compile the specification, derive a run, label it,
// and answer a provenance query.
func Example() {
	s := wfreach.RunningExample()
	g := wfreach.MustCompile(s)
	fmt.Println("class:", g.Class())

	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 50, Seed: 1})
	d, err := wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated)
	if err != nil {
		panic(err)
	}
	src := r.Graph.Sources()[0]
	snk := r.Graph.Sinks()[0]
	fmt.Println("source reaches sink:", d.Reach(src, snk))
	fmt.Println("sink reaches source:", d.Reach(snk, src))
	// Output:
	// class: linear-recursive
	// source reaches sink: true
	// sink reaches source: false
}

// ExampleNewExecutionLabeler shows on-the-fly labeling: vertices are
// labeled as execution events stream in, and queries are answered over
// the partial run.
func ExampleNewExecutionLabeler() {
	g := wfreach.MustCompile(wfreach.RunningExample())
	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 40, Seed: 2})
	events, err := r.Execution(nil)
	if err != nil {
		panic(err)
	}
	e := wfreach.NewExecutionLabeler(g, wfreach.TCL, wfreach.RModeDesignated)
	// Feed only the first half of the execution.
	half := events[:len(events)/2]
	for _, ev := range half {
		if _, err := e.Insert(ev); err != nil {
			panic(err)
		}
	}
	// Query over the partial execution: the first inserted vertex (the
	// workflow source) reaches the most recent one.
	first, last := half[0].V, half[len(half)-1].V
	fmt.Println("partial query:", e.Reach(first, last))
	// Output:
	// partial query: true
}

func ExampleSpecBuilder() {
	s := wfreach.NewSpec().
		Loop("Align").
		Start("g0", wfreach.NewGraph([]string{"in", "Align", "out"},
			[2]string{"in", "Align"}, [2]string{"Align", "out"})).
		Implement("Align", "body", wfreach.NewGraph([]string{"read", "blast", "emit"},
			[2]string{"read", "blast"}, [2]string{"blast", "emit"})).
		MustBuild()
	g := wfreach.MustCompile(s)
	fmt.Println(g.Class())
	fmt.Println(g.MinRunSize())
	// Output:
	// non-recursive
	// 5
}

func TestPublicAPISurface(t *testing.T) {
	g := wfreach.MustCompile(wfreach.BioAID())
	if g.Class() != spec.ClassLinear {
		t.Fatalf("BioAID class = %v", g.Class())
	}
	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 200, Seed: 3})
	d, err := wfreach.LabelRun(r, wfreach.BFS, wfreach.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	codec := wfreach.NewLabelCodec(g)
	for _, v := range r.Graph.LiveVertices() {
		l := d.MustLabel(v)
		if codec.BitLen(l) <= 0 {
			t.Fatal("label has no bits")
		}
		dec, err := codec.Decode(codec.Encode(l))
		if err != nil || !dec.Equal(l) {
			t.Fatal("codec round trip failed")
		}
	}
}

func TestXMLFacade(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.xml")
	runPath := filepath.Join(dir, "run.xml")

	s := wfreach.RunningExample()
	if err := wfreach.SaveSpec(specPath, s); err != nil {
		t.Fatal(err)
	}
	s2, err := wfreach.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != s.String() {
		t.Fatal("spec xml mismatch")
	}
	g := wfreach.MustCompile(s2)
	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 80, Seed: 5})
	if err := wfreach.SaveRun(runPath, r); err != nil {
		t.Fatal(err)
	}
	r2, err := wfreach.LoadRun(runPath, g)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != r.Size() {
		t.Fatal("run xml mismatch")
	}
	if _, err := wfreach.LoadSpec(filepath.Join(dir, "missing.xml")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := wfreach.LoadRun(filepath.Join(dir, "missing.xml"), g); err == nil {
		t.Fatal("missing run accepted")
	}
	if err := wfreach.SaveSpec(filepath.Join(dir, "nodir", "x.xml"), s); err == nil {
		t.Fatal("bad path accepted")
	}
	if err := wfreach.SaveRun(filepath.Join(dir, "nodir", "x.xml"), r); err == nil {
		t.Fatal("bad path accepted")
	}
	// Keep os import honest.
	if _, err := os.Stat(specPath); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticFacade(t *testing.T) {
	s := wfreach.Synthetic(wfreach.SyntheticParams{SubSize: 10, Depth: 5, RecModules: 1, Seed: 6})
	g := wfreach.MustCompile(s)
	if g.Class() != spec.ClassLinear {
		t.Fatal("synthetic(1R) should be linear")
	}
	lb := wfreach.MustCompile(wfreach.LowerBoundGrammar())
	if lb.Class() != spec.ClassNonlinearParallel {
		t.Fatal("lower-bound grammar class wrong")
	}
	pg := wfreach.MustCompile(wfreach.PathGrammar())
	if pg.Class() != spec.ClassNonlinearSeries {
		t.Fatal("path grammar class wrong")
	}
}

// TestFacadeNamesAreUsed keeps the facade the labeling library and no
// more: every exported name of wfreach.go is written as wfreach.<Name>
// by a program under examples/ or cmd/, or in README.md or docs/, or it
// is named in the declaration of such a name (the types its signatures
// spell).
func TestFacadeNamesAreUsed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wfreach.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each exported name, with the identifiers its declaration mentions.
	decls := map[string][]ast.Node{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = []ast.Node{d.Type}
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					decls[sp.Name.Name] = []ast.Node{sp.Type}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						for _, v := range sp.Values {
							decls[n.Name] = append(decls[n.Name], v)
						}
						if sp.Type != nil {
							decls[n.Name] = append(decls[n.Name], sp.Type)
						}
					}
				}
			}
		}
	}

	written := map[string]bool{}
	ref := regexp.MustCompile(`\bwfreach\.([A-Z]\w*)`)
	scan := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(b, -1) {
			written[string(m[1])] = true
		}
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				scan(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, "README.md") {
		scan(path)
	}

	used := map[string]bool{}
	for name := range written {
		used[name] = true
		for _, n := range decls[name] {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // pkg.Name names another package's identifier
				case *ast.Ident:
					used[n.Name] = true
				}
				return true
			})
		}
	}
	var unused []string
	for name := range decls {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	slices.Sort(unused)
	if len(unused) > 0 {
		t.Fatalf("wfreach.go exports %d names no program, README or doc uses: %s", len(unused), strings.Join(unused, ", "))
	}
}
