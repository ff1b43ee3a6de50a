package wfspecs_test

import (
	"fmt"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func TestRunningExampleStructure(t *testing.T) {
	s := wfspecs.RunningExample()
	g := spec.MustCompile(s)
	// Figure 2's exact shape: h3 = s3 → B → C → t3.
	h3 := s.Implementations("A")[0]
	gg := s.Graph(h3).G
	if gg.NumVertices() != 4 {
		t.Fatalf("h3 size = %d", gg.NumVertices())
	}
	if gg.Name(1) != "B" || gg.Name(2) != "C" || !gg.HasEdge(1, 2) {
		t.Fatal("h3 must chain B before C")
	}
	// The A↔C recursion is mutual: C is the recursive vertex of A's
	// body h3, and A of C's body.
	h6 := s.Implementations("C")[0]
	if gg.Name(g.Designated(h3)) != "C" || s.Graph(h6).G.Name(g.Designated(h6)) != "A" {
		t.Fatal("A↔C recursion missing")
	}
}

func TestFig6Structure(t *testing.T) {
	s := wfspecs.Fig6()
	h1 := s.Implementations("A")[0]
	gg := s.Graph(h1).G
	// h1 = {s1, a, A, A, t1}: the differential vertex a reaches exactly
	// one of the two recursive vertices (the crux of Theorem 1's proof).
	if gg.NumVertices() != 5 {
		t.Fatalf("h1 size = %d", gg.NumVertices())
	}
	var aV graph.VertexID = graph.None
	var recs []graph.VertexID
	for v := 0; v < gg.NumVertices(); v++ {
		switch gg.Name(graph.VertexID(v)) {
		case "a":
			aV = graph.VertexID(v)
		case "A":
			recs = append(recs, graph.VertexID(v))
		}
	}
	if aV == graph.None || len(recs) != 2 {
		t.Fatal("h1 must have vertex a and two A vertices")
	}
	reached := 0
	for _, r := range recs {
		if gg.Reaches(aV, r) {
			reached++
		}
	}
	if reached != 1 {
		t.Fatalf("a reaches %d of the A vertices, want exactly 1", reached)
	}
	// The two A's are parallel (mutually unreachable).
	if gg.Reaches(recs[0], recs[1]) || gg.Reaches(recs[1], recs[0]) {
		t.Fatal("the two recursive vertices must be parallel")
	}
}

func TestFig12Structure(t *testing.T) {
	s := wfspecs.Fig12()
	h1 := s.Implementations("A")[0]
	gg := s.Graph(h1).G
	// h1 = s1 → A → A → t1 in series.
	if gg.NumVertices() != 4 || gg.NumEdges() != 3 {
		t.Fatalf("h1 shape wrong: %v", gg)
	}
	if !gg.Reaches(1, 2) {
		t.Fatal("the two A vertices must be in series")
	}
}

func TestSyntheticMinRunGrowsWithDepth(t *testing.T) {
	prev := 0
	for _, depth := range []int{4, 8, 12} {
		g := spec.MustCompile(wfspecs.Synthetic(
			wfspecs.SyntheticParams{SubSize: 8, Depth: depth, RecModules: 1, Seed: 1}))
		mrs := g.MinRunSize()
		if mrs <= prev {
			t.Fatalf("depth %d: min run %d did not grow past %d", depth, mrs, prev)
		}
		prev = mrs
	}
}

func TestSyntheticParameterClamping(t *testing.T) {
	s := wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 1, Depth: 1, RecModules: 0, Seed: 2})
	g := spec.MustCompile(s)
	// Clamped to the minimal sensible family member; still valid and
	// linear recursive.
	if g.Class() != spec.ClassLinear {
		t.Fatalf("clamped synthetic class = %v", g.Class())
	}
}

func TestBioAIDNonRecursiveIsDerecursedBioAID(t *testing.T) {
	rec := wfspecs.BioAID()
	non := wfspecs.BioAIDNonRecursive()
	// Same loop/fork module census except A/C → AL.
	if rec.Kind("A") != spec.Plain || non.Kind("AL") != spec.Loop {
		t.Fatal("de-recursion should turn A into the loop AL")
	}
	if non.Kind("A") != spec.Atomic { // undeclared => atomic, unused
		t.Skip("A unused in the non-recursive variant")
	}
}

func TestRandomSpecAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := wfspecs.RandomParams{
			Plain:        int(seed % 5),
			Loops:        int(seed % 3),
			Forks:        int((seed / 2) % 3),
			RecursionLen: int(seed % 5),
			NonlinearRec: seed%7 == 0,
			MaxGraphSize: 4 + int(seed%6),
			Seed:         seed,
		}
		s := wfspecs.RandomSpec(p) // MustBuild inside: panics if invalid
		g, err := spec.Compile(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.RecursionLen == 0 && g.IsRecursive() {
			t.Fatalf("seed %d: unexpected recursion", seed)
		}
		if p.RecursionLen > 0 && !p.NonlinearRec && g.Class() != spec.ClassLinear {
			t.Fatalf("seed %d: expected linear, got %v", seed, g.Class())
		}
		if p.RecursionLen > 0 && p.NonlinearRec && g.Class() == spec.ClassLinear {
			t.Fatalf("seed %d: expected nonlinear", seed)
		}
		if g.MinRunSize() < 2 {
			t.Fatalf("seed %d: min run %d", seed, g.MinRunSize())
		}
	}
}

func TestRandomSpecDeterministic(t *testing.T) {
	p := wfspecs.RandomParams{Plain: 3, Loops: 1, Forks: 1, RecursionLen: 2, MaxGraphSize: 6, Seed: 99}
	a, b := wfspecs.RandomSpec(p), wfspecs.RandomSpec(p)
	if a.String() != b.String() {
		t.Fatal("RandomSpec not deterministic by seed")
	}
}

func TestRandomSpecRecursionCycleLength(t *testing.T) {
	g := spec.MustCompile(wfspecs.RandomSpec(wfspecs.RandomParams{
		RecursionLen: 3, MaxGraphSize: 5, Seed: 4,
	}))
	// The recursive vertex of R_i's body is R_{i+1 mod 3}: the full
	// cycle is live.
	s := g.Spec()
	for i := 0; i < 3; i++ {
		h := s.Implementations(fmt.Sprintf("R%d", i))[0]
		w := g.Designated(h)
		if want := fmt.Sprintf("R%d", (i+1)%3); w == graph.None || s.Graph(h).G.Name(w) != want {
			t.Fatalf("recursion cycle broken: R%d's body does not recurse through %s", i, want)
		}
	}
	if g.Class() != spec.ClassLinear {
		t.Fatalf("class = %v", g.Class())
	}
}
