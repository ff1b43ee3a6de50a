package spec_test

import (
	"strings"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func TestRunningExampleBuilds(t *testing.T) {
	s := wfspecs.RunningExample()
	if got := len(s.Graphs()); got != 7 {
		t.Fatalf("G(S) size = %d, want 7", got)
	}
	if s.Kind("L") != spec.Loop || s.Kind("F") != spec.Fork {
		t.Fatal("L/F kinds wrong")
	}
	if s.Kind("A") != spec.Plain || s.Kind("s0") != spec.Atomic {
		t.Fatal("A/s0 kinds wrong")
	}
	if got := len(s.Implementations("A")); got != 2 {
		t.Fatalf("A has %d implementations, want 2 (h3, h4)", got)
	}
	if err := s.NameResolvable(); err != nil {
		t.Fatalf("running example should be name-resolvable: %v", err)
	}
}

func TestRunningExampleTotals(t *testing.T) {
	s := wfspecs.RunningExample()
	// Example 3: Σ = {s0..s6, t0..t6, L, F, A, B, C}: 19 names.
	if got := len(s.Names()); got != 19 {
		t.Fatalf("|Σ| = %d, want 19", got)
	}
	// g0,h1,h2,h6 have 3 vertices; h3 has 4; h4,h5 have 2: total 20
	// (the name A labels one vertex in h2 and one in h6).
	if got := s.TotalVertices(); got != 20 {
		t.Fatalf("total vertices = %d, want 20", got)
	}
}

func TestInducesRelation(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	// Example 6: A directly induces B and C (via h3); C induces A.
	cases := []struct {
		a, b string
		want bool
	}{
		{"A", "B", true}, {"A", "C", true}, {"C", "A", true},
		{"A", "A", true}, // reflexive
		{"L", "F", true}, {"L", "A", true}, {"F", "A", true},
		{"B", "A", false}, {"A", "L", false}, {"A", "F", false},
		{"s0", "A", false}, {"A", "s3", true},
	}
	for _, c := range cases {
		if got := g.Induces(c.a, c.b); got != c.want {
			t.Errorf("Induces(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRecursiveVertices(t *testing.T) {
	s := wfspecs.RunningExample()
	g := spec.MustCompile(s)
	// Example 6: in A := h3 the vertex named C is recursive.
	h3 := s.Implementations("A")[0]
	rec := g.RecursiveVertices(h3)
	if len(rec) != 1 || s.Graph(h3).G.Name(rec[0]) != "C" {
		t.Fatalf("h3 recursive vertices = %v", rec)
	}
	if g.Designated(h3) != rec[0] {
		t.Fatal("designated vertex of h3 should be its unique recursive vertex")
	}
	// h6 (C := s6 → A → t6): the A vertex is recursive.
	h6 := s.Implementations("C")[0]
	rec6 := g.RecursiveVertices(h6)
	if len(rec6) != 1 || s.Graph(h6).G.Name(rec6[0]) != "A" {
		t.Fatalf("h6 recursive vertices = %v", rec6)
	}
	// h1 (loop body) and h4 (base case) have none.
	h1 := s.Implementations("L")[0]
	if len(g.RecursiveVertices(h1)) != 0 {
		t.Fatal("h1 should have no recursive vertices")
	}
	h4 := s.Implementations("A")[1]
	if len(g.RecursiveVertices(h4)) != 0 || g.Designated(h4) != graph.None {
		t.Fatal("h4 should have no recursive/designated vertices")
	}
	// The start graph heads no production.
	if len(g.RecursiveVertices(spec.StartGraph)) != 0 {
		t.Fatal("start graph has no production")
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		name string
		s    *spec.Spec
		want spec.Class
	}{
		// Example 7: the running example is linear recursive.
		{"running-example", wfspecs.RunningExample(), spec.ClassLinear},
		// Example 7 / Theorem 1: Figure 6 is not linear; its two
		// recursive vertices are parallel (Definition 13).
		{"fig6", wfspecs.Fig6(), spec.ClassNonlinearParallel},
		// Example 15: Figure 12 is nonlinear but series.
		{"fig12", wfspecs.Fig12(), spec.ClassNonlinearSeries},
		{"bioaid", wfspecs.BioAID(), spec.ClassLinear},
		{"bioaid-nonrec", wfspecs.BioAIDNonRecursive(), spec.ClassNonRecursive},
		{"synthetic-linear", wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 10, Depth: 5, RecModules: 1, Seed: 1}), spec.ClassLinear},
	}
	for _, c := range cases {
		g := spec.MustCompile(c.s)
		if g.Class() != c.want {
			t.Errorf("%s: class = %v, want %v", c.name, g.Class(), c.want)
		}
	}
	// Nonlinear synthetic: not linear (series or parallel depends on
	// the random topology).
	g := spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 10, Depth: 5, RecModules: 2, Seed: 1}))
	if g.IsLinearRecursive() {
		t.Error("synthetic with 2 R modules must not be linear recursive")
	}
}

func TestIsLinearRecursive(t *testing.T) {
	if !spec.MustCompile(wfspecs.RunningExample()).IsLinearRecursive() {
		t.Fatal("running example is linear recursive")
	}
	if !spec.MustCompile(wfspecs.BioAIDNonRecursive()).IsLinearRecursive() {
		t.Fatal("non-recursive grammars count as linear (Definition 10 trivially)")
	}
	if spec.MustCompile(wfspecs.Fig6()).IsLinearRecursive() {
		t.Fatal("Figure 6 is not linear recursive")
	}
}

// TestLoopWithRecursiveBodyIsNonlinear checks Lemma 5.1's contrapositive:
// declaring a recursion through a loop module makes the grammar
// nonlinear (the pumped S(h,h) production has two recursive vertices).
func TestLoopWithRecursiveBodyIsNonlinear(t *testing.T) {
	s := spec.NewBuilder().
		Loop("L").
		Start("g0", spec.G([]string{"s0", "L", "t0"},
			[2]string{"s0", "L"}, [2]string{"L", "t0"})).
		// L's first body contains L itself; the second lets it terminate.
		Implement("L", "h1", spec.G([]string{"s1", "L", "t1"},
			[2]string{"s1", "L"}, [2]string{"L", "t1"})).
		Implement("L", "h2", spec.G([]string{"s2", "t2"}, [2]string{"s2", "t2"})).
		MustBuild()
	g := spec.MustCompile(s)
	if g.IsLinearRecursive() {
		t.Fatal("recursion through a loop must be nonlinear (Lemma 5.1)")
	}
	if g.Class() != spec.ClassNonlinearSeries {
		t.Fatalf("loop self-recursion is series: got %v", g.Class())
	}
	// A fork self-recursion is parallel recursive (Theorem 5 applies).
	s2 := spec.NewBuilder().
		Fork("F").
		Start("g0", spec.G([]string{"s0", "F", "t0"},
			[2]string{"s0", "F"}, [2]string{"F", "t0"})).
		Implement("F", "h1", spec.G([]string{"s1", "F", "t1"},
			[2]string{"s1", "F"}, [2]string{"F", "t1"})).
		Implement("F", "h2", spec.G([]string{"s2", "t2"}, [2]string{"s2", "t2"})).
		MustBuild()
	g2 := spec.MustCompile(s2)
	if g2.Class() != spec.ClassNonlinearParallel {
		t.Fatalf("fork self-recursion: got %v", g2.Class())
	}
	// No designated vertex inside loop/fork bodies (§6 adaptation).
	if g.Designated(s.Implementations("L")[0]) != graph.None {
		t.Fatal("loop body must have no designated recursive vertex")
	}
}

func TestTerminationValidation(t *testing.T) {
	// A composite whose only implementation contains itself can never
	// terminate.
	_, err := spec.NewBuilder().
		Composite("X").
		Start("g0", spec.G([]string{"s0", "X", "t0"},
			[2]string{"s0", "X"}, [2]string{"X", "t0"})).
		Implement("X", "h1", spec.G([]string{"s1", "X", "t1"},
			[2]string{"s1", "X"}, [2]string{"X", "t1"})).
		Build()
	if err == nil || !strings.Contains(err.Error(), "terminate") {
		t.Fatalf("non-terminating spec accepted: %v", err)
	}
}

func TestBuildValidationErrors(t *testing.T) {
	two := spec.G([]string{"s", "t"}, [2]string{"s", "t"})
	cases := []struct {
		name  string
		build func() (*spec.Spec, error)
	}{
		{"no-start", func() (*spec.Spec, error) { return spec.NewBuilder().Build() }},
		{"implement-before-start", func() (*spec.Spec, error) {
			return spec.NewBuilder().Composite("A").Implement("A", "h", two).Build()
		}},
		{"composite-without-impl", func() (*spec.Spec, error) {
			return spec.NewBuilder().Composite("A").
				Start("g0", spec.G([]string{"s0", "A", "t0"}, [2]string{"s0", "A"}, [2]string{"A", "t0"})).Build()
		}},
		{"impl-of-atomic", func() (*spec.Spec, error) {
			return spec.NewBuilder().Start("g0", two).Implement("x", "h", two).Build()
		}},
		{"not-two-terminal", func() (*spec.Spec, error) {
			g := graph.New()
			g.AddVertex("a")
			g.AddVertex("b") // two sources
			return spec.NewBuilder().Start("g0", g).Build()
		}},
		{"single-vertex-graph", func() (*spec.Spec, error) {
			g := graph.New()
			g.AddVertex("a")
			return spec.NewBuilder().Start("g0", g).Build()
		}},
		{"composite-terminal", func() (*spec.Spec, error) {
			return spec.NewBuilder().Composite("A").
				Start("g0", spec.G([]string{"A", "t0"}, [2]string{"A", "t0"})).
				Implement("A", "h", two).Build()
		}},
		{"conflicting-kind", func() (*spec.Spec, error) {
			return spec.NewBuilder().Loop("A").Fork("A").Start("g0", two).Build()
		}},
		{"double-start", func() (*spec.Spec, error) {
			return spec.NewBuilder().Start("g0", two).Start("g1", two).Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
}

func TestNameResolvable(t *testing.T) {
	if err := wfspecs.Fig6().NameResolvable(); err == nil {
		t.Fatal("Figure 6 repeats name A within h1; must not be name-resolvable")
	}
	if err := wfspecs.BioAID().NameResolvable(); err != nil {
		t.Fatalf("BioAID should be name-resolvable: %v", err)
	}
	// Terminal name reused as an interior vertex of another graph.
	s := spec.NewBuilder().
		Composite("A").
		Start("g0", spec.G([]string{"s0", "A", "t0"}, [2]string{"s0", "A"}, [2]string{"A", "t0"})).
		Implement("A", "h1", spec.G([]string{"s1", "s0", "t1"}, [2]string{"s1", "s0"}, [2]string{"s0", "t1"})).
		MustBuild()
	if err := s.NameResolvable(); err == nil {
		t.Fatal("reused dummy name must fail NameResolvable")
	}
}

func TestResolveName(t *testing.T) {
	s := wfspecs.RunningExample()
	h3 := s.Implementations("A")[0]
	v, err := s.ResolveName(h3, "C")
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph(h3).G.Name(v) != "C" {
		t.Fatal("resolved wrong vertex")
	}
	if _, err := s.ResolveName(h3, "zzz"); err == nil {
		t.Fatal("unknown name resolved")
	}
	f6 := wfspecs.Fig6()
	if _, err := f6.ResolveName(f6.Implementations("A")[0], "A"); err == nil {
		t.Fatal("ambiguous name resolved")
	}
}

func TestMinExpansion(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	// B's only expansion is h5: 2 atoms.
	if got := g.MinExpansion("B"); got != 2 {
		t.Fatalf("MinExpansion(B) = %d, want 2", got)
	}
	// A's cheapest expansion is h4: 2 atoms.
	if got := g.MinExpansion("A"); got != 2 {
		t.Fatalf("MinExpansion(A) = %d, want 2", got)
	}
	// C = s6 + t6 + min(A) = 4.
	if got := g.MinExpansion("C"); got != 4 {
		t.Fatalf("MinExpansion(C) = %d, want 4", got)
	}
	// F = s2 + t2 + min(A) = 4; L = s1 + t1 + F = 6.
	if got := g.MinExpansion("L"); got != 6 {
		t.Fatalf("MinExpansion(L) = %d, want 6", got)
	}
	// Min run: s0 + t0 + L = 8.
	if got := g.MinRunSize(); got != 8 {
		t.Fatalf("MinRunSize = %d, want 8", got)
	}
}

func TestPointerBits(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	// 19 total vertices need 5 bits.
	if got := g.PointerBits(); got != 5 {
		t.Fatalf("PointerBits = %d, want 5", got)
	}
	if g.MaxGraphSize() != 4 {
		t.Fatalf("MaxGraphSize = %d, want 4 (h3)", g.MaxGraphSize())
	}
}

func TestGrammarReaches(t *testing.T) {
	s := wfspecs.RunningExample()
	g := spec.MustCompile(s)
	h3 := s.Implementations("A")[0]
	b, _ := s.ResolveName(h3, "B")
	c, _ := s.ResolveName(h3, "C")
	if !g.Reaches(spec.VertexRef{Graph: h3, V: b}, spec.VertexRef{Graph: h3, V: c}) {
		t.Fatal("B reaches C in h3")
	}
	if g.Reaches(spec.VertexRef{Graph: h3, V: c}, spec.VertexRef{Graph: h3, V: b}) {
		t.Fatal("C does not reach B in h3")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-graph Reaches must panic")
		}
	}()
	g.Reaches(spec.VertexRef{Graph: h3, V: b}, spec.VertexRef{Graph: 0, V: 0})
}

func TestProductionsRendering(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	prods := g.Productions()
	if len(prods) != 5 {
		t.Fatalf("productions = %v", prods)
	}
	joined := strings.Join(prods, "\n")
	for _, want := range []string{"A := h3 | h4", "L := h1 | S(h,h)", "F := h2 | P(h,h)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("productions missing %q:\n%s", want, joined)
		}
	}
}

func TestSpecString(t *testing.T) {
	s := wfspecs.RunningExample()
	str := s.String()
	if !strings.Contains(str, "start=g0") || !strings.Contains(str, "A(plain)") {
		t.Fatalf("String() = %s", str)
	}
}

func TestInlineAllNonRecursive(t *testing.T) {
	s := wfspecs.BioAIDNonRecursive()
	g := spec.MustCompile(s)
	in, err := g.InlineAll()
	if err != nil {
		t.Fatal(err)
	}
	// Section 7.4 / Table 2: the global specification graph has 106
	// vertices (⇒ the triangular TCL skeleton is 5565 bits).
	if got := in.Graph.NumVertices(); got != 106 {
		t.Fatalf("global spec vertices = %d, want 106", got)
	}
	if len(in.Origin) != 106 {
		t.Fatalf("origin table size = %d", len(in.Origin))
	}
	if !in.Graph.IsTwoTerminal() {
		t.Fatal("global spec must be two-terminal")
	}
	if !in.Graph.SpansSourceToSink() {
		t.Fatal("global spec must span source to sink")
	}
}

func TestInlineAllRejectsRecursive(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	if _, err := g.InlineAll(); err == nil {
		t.Fatal("inlining a recursive grammar must fail")
	}
}

// TestInlineReachabilityMatchesStructure verifies that inlined-region
// wiring preserves the slot DAG: if slot m reaches slot m' in the host
// graph, then every vertex of m's region reaches every vertex entered
// through m”s region entry.
func TestInlineReachabilityMatchesStructure(t *testing.T) {
	s := spec.NewBuilder().
		Composite("A", "B").
		Start("g0", spec.G([]string{"s0", "A", "B", "t0"},
			[2]string{"s0", "A"}, [2]string{"A", "B"}, [2]string{"B", "t0"})).
		Implement("A", "hA", spec.G([]string{"sa", "x", "ta"},
			[2]string{"sa", "x"}, [2]string{"x", "ta"})).
		Implement("B", "hB", spec.G([]string{"sb", "y", "tb"},
			[2]string{"sb", "y"}, [2]string{"y", "tb"})).
		MustBuild()
	g := spec.MustCompile(s)
	in, err := g.InlineAll()
	if err != nil {
		t.Fatal(err)
	}
	if in.Graph.NumVertices() != 8 {
		t.Fatalf("global size = %d, want 8", in.Graph.NumVertices())
	}
	aRegion := in.Root.Slots[1][0]
	bRegion := in.Root.Slots[2][0]
	if !in.Graph.Reaches(aRegion.Exit(s), bRegion.Entry(s)) {
		t.Fatal("A region must reach B region")
	}
	if in.Graph.Reaches(bRegion.Entry(s), aRegion.Exit(s)) {
		t.Fatal("B region must not reach back")
	}
}

// TestInlineParallelAlternatives checks that two alternatives of one
// slot are wired side by side and mutually unreachable.
func TestInlineParallelAlternatives(t *testing.T) {
	s := spec.NewBuilder().
		Composite("A").
		Start("g0", spec.G([]string{"s0", "A", "t0"},
			[2]string{"s0", "A"}, [2]string{"A", "t0"})).
		Implement("A", "h1", spec.G([]string{"sa", "ta"}, [2]string{"sa", "ta"})).
		Implement("A", "h2", spec.G([]string{"sb", "tb"}, [2]string{"sb", "tb"})).
		MustBuild()
	g := spec.MustCompile(s)
	in, err := g.InlineAll()
	if err != nil {
		t.Fatal(err)
	}
	alts := in.Root.Slots[1]
	if len(alts) != 2 {
		t.Fatalf("alternatives = %d", len(alts))
	}
	if in.Graph.Reaches(alts[0].Entry(s), alts[1].Entry(s)) {
		t.Fatal("alternatives must be mutually unreachable")
	}
	// Both wired from s0 and to t0.
	src := in.Root.GlobalOf[0]
	for _, alt := range alts {
		if !in.Graph.Reaches(src, alt.Entry(s)) {
			t.Fatal("alternative not wired from host predecessor")
		}
	}
}

func TestSyntheticFamilyShape(t *testing.T) {
	for _, depth := range []int{4, 5, 10} {
		s := wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 10, Depth: depth, RecModules: 1, Seed: 42})
		// depth graphs below g0 plus g0 plus the recursive body h′d.
		if got := len(s.Graphs()); got != depth+2 {
			t.Fatalf("depth %d: |G(S)| = %d, want %d", depth, got, depth+2)
		}
		if s.Kind("L") != spec.Loop || s.Kind("F") != spec.Fork || s.Kind("R") != spec.Plain {
			t.Fatalf("depth %d: module kinds wrong", depth)
		}
		g := spec.MustCompile(s)
		if g.Class() != spec.ClassLinear {
			t.Fatalf("depth %d: class = %v", depth, g.Class())
		}
	}
}

func TestSyntheticDeterministicBySeed(t *testing.T) {
	p := wfspecs.SyntheticParams{SubSize: 12, Depth: 6, RecModules: 1, Seed: 9}
	a := wfspecs.Synthetic(p)
	b := wfspecs.Synthetic(p)
	if a.String() != b.String() {
		t.Fatal("synthetic spec not deterministic by seed")
	}
	ga, gb := a.Graphs(), b.Graphs()
	for i := range ga {
		if ga[i].G.String() != gb[i].G.String() {
			t.Fatalf("graph %d differs between identical seeds", i)
		}
	}
}

func TestBioAIDStatistics(t *testing.T) {
	s := wfspecs.BioAID()
	if got := len(s.Graphs()); got != 11 {
		t.Fatalf("BioAID sub-workflows = %d, want 11", got)
	}
	total := s.TotalVertices()
	avg := float64(total) / 11
	if avg < 10.0 || avg > 11.0 {
		t.Fatalf("BioAID average sub-workflow size = %.2f, want ≈10.5", avg)
	}
	loops, forks := 0, 0
	for _, n := range s.CompositeNames() {
		switch s.Kind(n) {
		case spec.Loop:
			loops++
		case spec.Fork:
			forks++
		}
	}
	if loops != 2 || forks != 4 {
		t.Fatalf("BioAID loops/forks = %d/%d, want 2/4", loops, forks)
	}
	// One linear recursion of length 2: A ↔ C.
	g := spec.MustCompile(s)
	if !g.Induces("A", "C") || !g.Induces("C", "A") {
		t.Fatal("A and C must form the recursion")
	}
	if g.Class() != spec.ClassLinear {
		t.Fatalf("BioAID class = %v", g.Class())
	}
}

func TestGIdxAllowsDuplicates(t *testing.T) {
	g := spec.GIdx([]string{"s", "A", "A", "t"}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	if g.NumVertices() != 4 || g.Name(1) != "A" || g.Name(2) != "A" {
		t.Fatal("GIdx mis-built")
	}
}

func TestGPanicsOnDuplicatesAndUnknown(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("dup", func() { spec.G([]string{"a", "a"}) })
	mustPanic("unknown", func() { spec.G([]string{"a"}, [2]string{"a", "b"}) })
}

func TestKindString(t *testing.T) {
	for k, want := range map[spec.Kind]string{
		spec.Atomic: "atomic", spec.Plain: "plain", spec.Loop: "loop", spec.Fork: "fork",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %s", k, k.String())
		}
	}
	if spec.Atomic.Composite() || !spec.Loop.Composite() {
		t.Fatal("Composite() wrong")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[spec.Class]string{
		spec.ClassNonRecursive:      "non-recursive",
		spec.ClassLinear:            "linear-recursive",
		spec.ClassNonlinearSeries:   "nonlinear-series-recursive",
		spec.ClassNonlinearParallel: "nonlinear-parallel-recursive",
	} {
		if c.String() != want {
			t.Errorf("Class.String() = %s, want %s", c.String(), want)
		}
	}
}
