package skeleton_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func TestGraphTCLMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := graph.RandomDAG(rng, 20+rng.Intn(20), 0.2)
		tcl := skeleton.NewGraphScheme(skeleton.TCL, g)
		for v := 0; v < g.NumVertices(); v++ {
			for w := 0; w < g.NumVertices(); w++ {
				got := tcl.Reaches(graph.VertexID(v), graph.VertexID(w))
				want := g.Reaches(graph.VertexID(v), graph.VertexID(w))
				if got != want {
					t.Fatalf("trial %d: TCL(%d,%d)=%v, BFS=%v", trial, v, w, got, want)
				}
			}
		}
	}
}

func TestGraphTCLQuick(t *testing.T) {
	// Property: on random two-terminal graphs, TCL agrees with BFS for
	// random pairs.
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64, a, b uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomTwoTerminal(r, 12, 0.5, nil)
		tcl := skeleton.NewGraphScheme(skeleton.TCL, g)
		v := graph.VertexID(int(a) % g.NumVertices())
		w := graph.VertexID(int(b) % g.NumVertices())
		return tcl.Reaches(v, w) == g.Reaches(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphTCLBitsTriangular(t *testing.T) {
	// Section 3.2: vertex v_i stores i-1 bits; a graph with n vertices
	// stores n(n-1)/2 in total.
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddVertex("x")
	}
	for i := 0; i < 9; i++ {
		g.MustAddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	tcl := skeleton.NewGraphScheme(skeleton.TCL, g)
	if got := tcl.Bits(); got != 45 {
		t.Fatalf("Bits = %d, want 10*9/2 = 45", got)
	}
}

func TestGraphTCLOutOfRange(t *testing.T) {
	g := graph.RandomTwoTerminal(rand.New(rand.NewSource(1)), 5, 0.3, nil)
	tcl := skeleton.NewGraphScheme(skeleton.TCL, g)
	if tcl.Reaches(-1, 0) || tcl.Reaches(0, 99) {
		t.Fatal("out-of-range queries must be false")
	}
}

func TestGraphBFSIsZeroCost(t *testing.T) {
	g := graph.RandomTwoTerminal(rand.New(rand.NewSource(2)), 8, 0.4, nil)
	bfs := skeleton.NewGraphScheme(skeleton.BFS, g)
	if bfs.Bits() != 0 {
		t.Fatal("BFS stores no labels")
	}
	if !bfs.Reaches(0, graph.VertexID(g.NumVertices()-1)) {
		t.Fatal("source must reach sink")
	}
}

func TestSchemeOverSpec(t *testing.T) {
	s := wfspecs.RunningExample()
	g := spec.MustCompile(s)
	for _, kind := range []skeleton.Kind{skeleton.TCL, skeleton.BFS} {
		sch := skeleton.New(kind, g)
		h3 := s.Implementations("A")[0]
		b, c := vertexNamed(s.Graph(h3).G, "B"), vertexNamed(s.Graph(h3).G, "C")
		if !sch.Pi(spec.VertexRef{Graph: h3, V: b}, spec.VertexRef{Graph: h3, V: c}) {
			t.Fatalf("%v: B must reach C in h3", kind)
		}
		if sch.Pi(spec.VertexRef{Graph: h3, V: c}, spec.VertexRef{Graph: h3, V: b}) {
			t.Fatalf("%v: C must not reach B in h3", kind)
		}
	}
}

func TestSchemePiPanicsAcrossGraphs(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	sch := skeleton.New(skeleton.TCL, g)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-graph π must panic")
		}
	}()
	sch.Pi(spec.VertexRef{Graph: 0, V: 0}, spec.VertexRef{Graph: 1, V: 0})
}

func TestSchemeBitsAggregates(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	sch := skeleton.New(skeleton.TCL, g)
	// Graph sizes 3,3,3,4,2,2,3 → Σ n(n-1)/2 = 3+3+3+6+1+1+3 = 20.
	if got := sch.Bits(); got != 20 {
		t.Fatalf("Bits = %d, want 20", got)
	}
	if skeleton.New(skeleton.BFS, g).Bits() != 0 {
		t.Fatal("BFS spec scheme stores nothing")
	}
}

func TestSchemeAgreesWithClosureOnAllSpecGraphs(t *testing.T) {
	for _, s := range []*spec.Spec{
		wfspecs.RunningExample(), wfspecs.BioAID(), wfspecs.Fig6(), wfspecs.Fig12(),
	} {
		g := spec.MustCompile(s)
		tcl := skeleton.New(skeleton.TCL, g)
		bfs := skeleton.New(skeleton.BFS, g)
		for _, ng := range s.Graphs() {
			n, cl := ng.G.NumVertices(), ng.G.Closure()
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					a := spec.VertexRef{Graph: ng.ID, V: graph.VertexID(v)}
					b := spec.VertexRef{Graph: ng.ID, V: graph.VertexID(w)}
					want := cl.Reaches(a.V, b.V)
					if tcl.Pi(a, b) != want {
						t.Fatalf("%s/%s: TCL π(%d,%d) != closure", s, ng.Label, v, w)
					}
					if bfs.Pi(a, b) != want {
						t.Fatalf("%s/%s: BFS π(%d,%d) != closure", s, ng.Label, v, w)
					}
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if skeleton.TCL.String() != "TCL" || skeleton.BFS.String() != "BFS" {
		t.Fatal("Kind.String wrong")
	}
}

// vertexNamed returns the first vertex of g with the given name.
func vertexNamed(g *graph.Graph, name string) graph.VertexID {
	for v := 0; v < g.NumVertices(); v++ {
		if g.Name(graph.VertexID(v)) == name {
			return graph.VertexID(v)
		}
	}
	return graph.None
}
