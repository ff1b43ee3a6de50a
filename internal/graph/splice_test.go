package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestReplaceCopiesIsReplaceOfComposition holds the splice to its
// definition: replacing u with k copies of h in place must leave the
// graph Replace(u, Series(h,…,h)) or Replace(u, Parallel(h,…,h))
// leaves — the same vertex ids, names and tombstones, and every out-
// and in-list in the same order. Both sides run a whole random
// derivation of BioAID and of random grammars, so later steps splice
// next to lists earlier steps carved.
func TestReplaceCopiesIsReplaceOfComposition(t *testing.T) {
	specs := map[string]*spec.Spec{"BioAID": wfspecs.BioAID()}
	for seed := int64(1); seed <= 12; seed++ {
		specs[fmt.Sprintf("random%d", seed)] = wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: 2, Loops: 3, Forks: 3, RecursionLen: int(seed % 3), NonlinearRec: seed%2 == 0,
			MaxGraphSize: 7, Seed: seed,
		})
	}
	steps := 0
	for name, s := range specs {
		for seed := int64(0); seed < 8; seed++ {
			steps += derive(t, name, s, rand.New(rand.NewSource(seed)))
		}
	}
	if steps < 1000 {
		t.Fatalf("only %d derivation steps compared", steps)
	}
}

// derive applies random derivation steps to two copies of s's start
// graph, one by the splice and one by the composition, compares them
// after every step and returns the number of steps.
func derive(t *testing.T, name string, s *spec.Spec, rng *rand.Rand) int {
	fast := s.Graph(spec.StartGraph).G.Clone()
	ref := fast.Clone()
	var open []graph.VertexID
	for v := 0; v < fast.NumVertices(); v++ {
		if s.Kind(fast.Name(graph.VertexID(v))).Composite() {
			open = append(open, graph.VertexID(v))
		}
	}
	step := 0
	for ; len(open) > 0 && fast.NumVertices() < 3000; step++ {
		i := rng.Intn(len(open))
		u := open[i]
		open = slices.Delete(open, i, i+1)
		impls := s.Implementations(fast.Name(u))
		h := s.Graph(impls[rng.Intn(len(impls))]).G
		kind, k := s.Kind(fast.Name(u)), 1
		if kind == spec.Loop || kind == spec.Fork {
			k += rng.Intn(5)
		}

		base, err := fast.ReplaceCopies(u, h, k, kind == spec.Loop)
		if err != nil {
			t.Fatalf("%s step %d: ReplaceCopies: %v", name, step, err)
		}
		repl := h
		if k > 1 {
			parts := make([]*graph.Graph, k)
			for c := range parts {
				parts[c] = h
			}
			if kind == spec.Loop {
				repl = graph.Series(parts...)
			} else {
				repl = graph.Parallel(parts...)
			}
		}
		refBase, err := ref.Replace(u, repl)
		if err != nil {
			t.Fatalf("%s step %d: Replace: %v", name, step, err)
		}
		if base != refBase {
			t.Fatalf("%s step %d: splice starts at %d, composition at %d", name, step, base, refBase)
		}
		sameGraph(t, name, step, fast, ref)
		for v := base; int(v) < fast.NumVertices(); v++ {
			if s.Kind(fast.Name(v)).Composite() {
				open = append(open, v)
			}
		}
	}
	return step
}

func sameGraph(t *testing.T, name string, step int, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.LiveCount() != want.LiveCount() {
		t.Fatalf("%s step %d: %d vertices, %d edges, %d live; want %d, %d, %d", name, step,
			got.NumVertices(), got.NumEdges(), got.LiveCount(), want.NumVertices(), want.NumEdges(), want.LiveCount())
	}
	for v := graph.VertexID(0); int(v) < got.NumVertices(); v++ {
		switch {
		case got.Name(v) != want.Name(v):
			t.Fatalf("%s step %d: vertex %d is %q, want %q", name, step, v, got.Name(v), want.Name(v))
		case got.IsTombstone(v) != want.IsTombstone(v):
			t.Fatalf("%s step %d: vertex %d tombstone %v, want %v", name, step, v, got.IsTombstone(v), want.IsTombstone(v))
		case !slices.Equal(got.Out(v), want.Out(v)):
			t.Fatalf("%s step %d: out(%d) = %v, want %v", name, step, v, got.Out(v), want.Out(v))
		case !slices.Equal(got.In(v), want.In(v)):
			t.Fatalf("%s step %d: in(%d) = %v, want %v", name, step, v, got.In(v), want.In(v))
		}
	}
}

// TestReplaceCopiesRefusesBadInput: an error leaves the host as it was.
func TestReplaceCopiesRefusesBadInput(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"p", "u", "s"} {
		g.AddVertex(n)
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	twoSinks := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		twoSinks.AddVertex(n)
	}
	twoSinks.MustAddEdge(0, 1)
	twoSinks.MustAddEdge(0, 2)
	for _, c := range []struct {
		what string
		h    *graph.Graph
		k    int
	}{
		{"empty graph", graph.New(), 2},
		{"zero copies", twoSinks, 0},
		{"two copies of a graph with two sinks", twoSinks, 2},
	} {
		before := g.String()
		if _, err := g.ReplaceCopies(1, c.h, c.k, true); err == nil {
			t.Errorf("%s accepted", c.what)
		}
		if g.String() != before || g.IsTombstone(1) {
			t.Errorf("%s: refused replacement changed the host: %s", c.what, g)
		}
	}
	// One copy of a graph with two sinks is plain Definition 4.
	if _, err := g.ReplaceCopies(1, twoSinks, 1, true); err != nil {
		t.Fatal(err)
	}
	if got := g.In(2); !slices.Equal(got, []graph.VertexID{4, 5}) {
		t.Fatalf("in(s) = %v, want both sinks [4 5]", got)
	}
}
