package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// chain builds s -> a -> b -> ... -> t with the given names.
func chain(t *testing.T, names ...string) *Graph {
	t.Helper()
	g := New()
	var prev VertexID = None
	for _, n := range names {
		v := g.AddVertex(n)
		if prev != None {
			g.MustAddEdge(prev, v)
		}
		prev = v
	}
	return g
}

func TestAddVertexAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if got := g.AddVertex("x"); got != VertexID(i) {
			t.Fatalf("AddVertex #%d = %d", i, got)
		}
	}
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	v := g.AddVertex("a")
	if err := g.AddEdge(v, v); err != ErrSelfLoop {
		t.Fatalf("self-loop error = %v, want ErrSelfLoop", err)
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New()
	a, b := g.AddVertex("a"), g.AddVertex("b")
	g.MustAddEdge(a, b)
	if err := g.AddEdge(a, b); err != ErrDuplicateEdge {
		t.Fatalf("duplicate error = %v, want ErrDuplicateEdge", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeRejectsCycle(t *testing.T) {
	g := chain(t, "a", "b", "c")
	if err := g.AddEdge(2, 0); err != ErrCycle {
		t.Fatalf("cycle error = %v, want ErrCycle", err)
	}
	// Diamond closing edge is fine.
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatalf("forward edge: %v", err)
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New()
	g.AddVertex("a")
	if err := g.AddEdge(0, 7); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative edge accepted")
	}
}

func TestReachesReflexiveAndTransitive(t *testing.T) {
	g := chain(t, "a", "b", "c", "d")
	cases := []struct {
		v, w VertexID
		want bool
	}{
		{0, 0, true}, {0, 3, true}, {1, 3, true}, {3, 0, false}, {2, 1, false},
	}
	for _, c := range cases {
		if got := g.Reaches(c.v, c.w); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.v, c.w, got, c.want)
		}
	}
}

func TestReachesDiamond(t *testing.T) {
	g := New()
	s := g.AddVertex("s")
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	u := g.AddVertex("t")
	g.MustAddEdge(s, a)
	g.MustAddEdge(s, b)
	g.MustAddEdge(a, u)
	g.MustAddEdge(b, u)
	if !g.Reaches(s, u) {
		t.Fatal("s should reach t")
	}
	if g.Reaches(a, b) || g.Reaches(b, a) {
		t.Fatal("parallel branches must not reach each other")
	}
}

func TestTopoOrderIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		g := RandomDAG(rng, 30, 0.2)
		order := g.TopoOrder()
		if len(order) != g.NumVertices() {
			t.Fatalf("topo order misses vertices: %d vs %d", len(order), g.NumVertices())
		}
		pos := make(map[VertexID]int)
		for i, v := range order {
			pos[v] = i
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Out(VertexID(v)) {
				if pos[VertexID(v)] >= pos[w] {
					t.Fatalf("edge %d->%d violates topo order", v, w)
				}
			}
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomDAG(rng, 40, 0.15)
	a := g.TopoOrder()
	b := g.TopoOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder is not deterministic")
		}
	}
}

func TestClosureMatchesReaches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := RandomDAG(rng, 25, 0.25)
		c := g.Closure()
		for v := 0; v < g.NumVertices(); v++ {
			for w := 0; w < g.NumVertices(); w++ {
				got := c.Reaches(VertexID(v), VertexID(w))
				want := g.Reaches(VertexID(v), VertexID(w))
				if got != want {
					t.Fatalf("closure(%d,%d) = %v, BFS = %v", v, w, got, want)
				}
			}
		}
	}
}

func TestClosureOutOfRange(t *testing.T) {
	g := chain(t, "a", "b")
	c := g.Closure()
	if c.Reaches(0, 9) || c.Reaches(-1, 0) {
		t.Fatal("out-of-range closure query should be false")
	}
	if c.N() != 2 {
		t.Fatalf("Closure.N = %d", c.N())
	}
}

func TestTwoTerminalDetection(t *testing.T) {
	g := chain(t, "s", "m", "t")
	if !g.IsTwoTerminal() {
		t.Fatal("chain should be two-terminal")
	}
	if g.Source() != 0 || g.Sink() != 2 {
		t.Fatalf("source/sink = %d/%d", g.Source(), g.Sink())
	}
	g.AddVertex("orphan")
	if g.IsTwoTerminal() {
		t.Fatal("orphan vertex breaks two-terminality")
	}
	if g.Source() != None {
		t.Fatal("ambiguous source should be None")
	}
	if New().IsTwoTerminal() {
		t.Fatal("empty graph is not two-terminal")
	}
}

func TestSpansSourceToSink(t *testing.T) {
	g := chain(t, "s", "a", "t")
	if !g.SpansSourceToSink() {
		t.Fatal("chain spans source to sink")
	}
	// A vertex hanging off the side, reachable from s but not reaching t,
	// still yields a unique source/sink pair but fails the span check...
	// it would be a second sink, so build the dead-end as a diamond leg
	// that skips the sink instead: s->a->t, s->b, b->t makes it span; use
	// b with no outgoing edge: that makes two sinks, caught either way.
	v := g.AddVertex("dead")
	g.MustAddEdge(0, v)
	if g.SpansSourceToSink() {
		t.Fatal("dead-end vertex must fail the span check")
	}
}

func TestSeriesComposition(t *testing.T) {
	g1 := chain(t, "s1", "t1")
	g2 := chain(t, "s2", "t2")
	g3 := chain(t, "s3", "t3")
	res := Series(g1, g2, g3) // g1 at 0-1, g2 at 2-3, g3 at 4-5
	if res.NumVertices() != 6 {
		t.Fatalf("vertices = %d", res.NumVertices())
	}
	// Definition 1: edge from sink of g_i to source of g_{i+1}.
	if !res.HasEdge(1, 2) || !res.HasEdge(3, 4) {
		t.Fatal("series edges missing")
	}
	if !res.IsTwoTerminal() {
		t.Fatal("series of two-terminal graphs is two-terminal")
	}
	if !res.Reaches(0, 5) {
		t.Fatal("series start must reach series end")
	}
}

func TestParallelComposition(t *testing.T) {
	g1 := chain(t, "s1", "t1")
	g2 := chain(t, "s2", "t2")
	res := Parallel(g1, g2) // g1 at 0-1, g2 at 2-3
	if res.NumVertices() != 4 || res.NumEdges() != 2 {
		t.Fatalf("parallel composition wrong shape: %v", res)
	}
	if res.Reaches(0, 3) || res.Reaches(2, 1) {
		t.Fatal("parallel operands must stay disconnected")
	}
	if res.IsTwoTerminal() {
		t.Fatal("parallel composition of 2 graphs has 2 sources")
	}
}

func TestSeriesPanicsOnNonTwoTerminal(t *testing.T) {
	bad := New()
	bad.AddVertex("a")
	bad.AddVertex("b") // two sources, two sinks
	defer func() {
		if recover() == nil {
			t.Fatal("Series must panic on a non-two-terminal operand")
		}
	}()
	Series(bad, bad)
}

func TestInsert(t *testing.T) {
	g := chain(t, "a", "b")
	v, err := g.Insert("c", []VertexID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, v) || !g.HasEdge(1, v) {
		t.Fatal("insert edges missing")
	}
	if _, err := g.Insert("d", []VertexID{0, 0}); err == nil {
		t.Fatal("duplicate predecessor accepted")
	}
	if _, err := g.Insert("d", []VertexID{42}); err == nil {
		t.Fatal("out-of-range predecessor accepted")
	}
	// Insertion with empty predecessor set: a fresh source.
	w, err := g.Insert("e", nil)
	if err != nil || g.InDegree(w) != 0 {
		t.Fatalf("empty insert: %v", err)
	}
}

func TestReplaceBasic(t *testing.T) {
	// p -> u -> s, replace u with a 2-vertex chain.
	g := chain(t, "p", "u", "s")
	h := chain(t, "h1", "h2")
	base, err := g.Replace(1, h)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := base, base+1
	if !g.HasEdge(0, h1) || !g.HasEdge(h2, 2) || !g.HasEdge(h1, h2) {
		t.Fatalf("replacement wiring wrong: %v", g)
	}
	if !g.IsTombstone(1) {
		t.Fatal("replaced vertex must be a tombstone")
	}
	if g.LiveCount() != 4 {
		t.Fatalf("LiveCount = %d, want 4", g.LiveCount())
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Fatal("edges incident to u must be removed")
	}
}

func TestReplaceWiresAllSourcesAndSinks(t *testing.T) {
	// Definition 4 wires every source and every sink of h, which is what
	// connects the copies of a parallel (fork) composition.
	g := chain(t, "p", "u", "s")
	c1 := chain(t, "a1", "b1")
	c2 := chain(t, "a2", "b2")
	par := Parallel(c1, c2)
	base, err := g.Replace(1, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := base + VertexID(i)
		if par.InDegree(VertexID(i)) == 0 && !g.HasEdge(0, v) {
			t.Fatalf("source copy %d not wired from predecessor", i)
		}
		if par.OutDegree(VertexID(i)) == 0 && !g.HasEdge(v, 2) {
			t.Fatalf("sink copy %d not wired to successor", i)
		}
	}
	// The two copies remain mutually unreachable.
	if g.Reaches(base, base+3) {
		t.Fatal("fork copies must not reach each other")
	}
}

func TestReplaceErrors(t *testing.T) {
	g := chain(t, "a", "b")
	if _, err := g.Replace(9, chain(t, "x", "y")); err == nil {
		t.Fatal("out-of-range replace accepted")
	}
	if _, err := g.Replace(1, New()); err == nil {
		t.Fatal("empty replacement accepted")
	}
	if _, err := g.Replace(1, chain(t, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Replace(1, chain(t, "x")); err == nil {
		t.Fatal("double replace accepted")
	}
}

// TestReplacePreservesReachability checks Lemma 4.3: replacement
// preserves reachability between pairs of pre-existing vertices.
func TestReplacePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := RandomTwoTerminal(rng, 8+rng.Intn(6), 0.4, nil)
		before := make(map[[2]VertexID]bool)
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				before[[2]VertexID{VertexID(v), VertexID(w)}] = g.Reaches(VertexID(v), VertexID(w))
			}
		}
		// Replace a random interior vertex.
		u := VertexID(1 + rng.Intn(n-2))
		h := RandomTwoTerminal(rng, 2+rng.Intn(5), 0.3, nil)
		if _, err := g.Replace(u, h); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if VertexID(v) == u || VertexID(w) == u {
					continue
				}
				got := g.Reaches(VertexID(v), VertexID(w))
				if got != before[[2]VertexID{VertexID(v), VertexID(w)}] {
					t.Fatalf("trial %d: replacement changed reachability %d->%d", trial, v, w)
				}
			}
		}
	}
}

// TestInsertPreservesReachability checks the same preservation for
// vertex insertion (the other dynamic update of Section 2.4).
func TestInsertPreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := RandomDAG(rng, 20, 0.2)
	n := g.NumVertices()
	before := make([][]bool, n)
	for v := 0; v < n; v++ {
		before[v] = make([]bool, n)
		for w := 0; w < n; w++ {
			before[v][w] = g.Reaches(VertexID(v), VertexID(w))
		}
	}
	if _, err := g.Insert("new", []VertexID{0, 5, 7}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if g.Reaches(VertexID(v), VertexID(w)) != before[v][w] {
				t.Fatalf("insertion changed reachability %d->%d", v, w)
			}
		}
	}
}

// TestTombstoneIsAFlagNotAName: whether a vertex is dead is a property
// of the vertex, not of its name. A live vertex whose name starts with
// a NUL byte is live everywhere, and a replaced vertex keeps its module
// name — through Clone and compositions too.
func TestTombstoneIsAFlagNotAName(t *testing.T) {
	replaced := func(t *testing.T) *Graph {
		g := chain(t, "\x00a", "u", "b")
		if _, err := g.Replace(1, chain(t, "x")); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		name                 string
		build                func(t *testing.T) *Graph
		live                 int
		dead                 []VertexID
		sources, sinks, topo []VertexID
		names                []string
	}{
		{"NUL-prefixed live vertex", func(t *testing.T) *Graph { return chain(t, "\x00a", "b") },
			2, nil, []VertexID{0}, []VertexID{1}, []VertexID{0, 1}, []string{"\x00a", "b"}},
		{"replaced vertex keeps its name", replaced,
			3, []VertexID{1}, []VertexID{0}, []VertexID{2}, []VertexID{0, 3, 2}, []string{"\x00a", "u", "b", "x"}},
		{"clone keeps the flags", func(t *testing.T) *Graph { return replaced(t).Clone() },
			3, []VertexID{1}, []VertexID{0}, []VertexID{2}, []VertexID{0, 3, 2}, []string{"\x00a", "u", "b", "x"}},
		{"series carries an operand's tombstones", func(t *testing.T) *Graph {
			s := Series(replaced(t), replaced(t))
			return s
		}, 6, []VertexID{1, 5}, []VertexID{0}, []VertexID{6}, []VertexID{0, 3, 2, 4, 7, 6},
			[]string{"\x00a", "u", "b", "x", "\x00a", "u", "b", "x"}},
		{"series keeps NUL-prefixed vertices live", func(t *testing.T) *Graph {
			g := chain(t, "\x00a", "b")
			s := Series(g, g)
			return s
		}, 4, nil, []VertexID{0}, []VertexID{3}, []VertexID{0, 1, 2, 3}, []string{"\x00a", "b", "\x00a", "b"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.build(t)
			if g.LiveCount() != c.live || len(g.LiveVertices()) != c.live {
				t.Errorf("LiveCount %d, LiveVertices %v; want %d live", g.LiveCount(), g.LiveVertices(), c.live)
			}
			for v := range g.NumVertices() {
				want := slices.Contains(c.dead, VertexID(v))
				if g.IsTombstone(VertexID(v)) != want {
					t.Errorf("IsTombstone(%d) = %v, want %v", v, !want, want)
				}
				if g.Name(VertexID(v)) != c.names[v] {
					t.Errorf("Name(%d) = %q, want %q", v, g.Name(VertexID(v)), c.names[v])
				}
			}
			if !slices.Equal(g.Sources(), c.sources) || !slices.Equal(g.Sinks(), c.sinks) {
				t.Errorf("Sources %v, Sinks %v; want %v, %v", g.Sources(), g.Sinks(), c.sources, c.sinks)
			}
			if !slices.Equal(g.TopoOrder(), c.topo) {
				t.Errorf("TopoOrder %v, want %v", g.TopoOrder(), c.topo)
			}
			if !g.IsTwoTerminal() {
				t.Error("not two-terminal")
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := chain(t, "a", "b")
	c := g.Clone()
	c.AddVertex("c")
	c.MustAddEdge(1, 2)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatal("Clone shares state with original")
	}
}

func TestRandomTwoTerminalInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := RandomTwoTerminal(rng, n, rng.Float64(), nil)
		if !g.IsTwoTerminal() {
			t.Fatalf("n=%d: not two-terminal: %v", n, g)
		}
		if !g.SpansSourceToSink() {
			t.Fatalf("n=%d: does not span source to sink: %v", n, g)
		}
		if g.Source() != 0 || g.Sink() != VertexID(n-1) {
			t.Fatalf("n=%d: terminals moved", n)
		}
	}
}

func TestRandomTwoTerminalNames(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := RandomTwoTerminal(rng, 3, 0, []string{"x", "y", "z"})
	if g.Name(0) != "x" || g.Name(2) != "z" {
		t.Fatal("names not applied")
	}
}

func TestStringSmoke(t *testing.T) {
	g := chain(t, "a", "b")
	if g.String() == "" {
		t.Fatal("String should render something")
	}
}
