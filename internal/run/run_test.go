package run_test

import (
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func grammar(t *testing.T) *spec.Grammar {
	t.Helper()
	return spec.MustCompile(wfspecs.RunningExample())
}

func TestNewStartsAtG0(t *testing.T) {
	r := run.New(grammar(t))
	if r.Size() != 3 {
		t.Fatalf("initial size = %d, want 3", r.Size())
	}
	if len(r.Open()) != 1 || r.NameOf(r.Open()[0]) != "L" {
		t.Fatalf("open composites = %v", r.Open())
	}
	if r.Complete() {
		t.Fatal("fresh run is not complete")
	}
	if r.NameOf(r.StartIDs[0]) != "s0" {
		t.Fatal("start ids misaligned")
	}
}

func TestApplyPlainReplacement(t *testing.T) {
	g := grammar(t)
	r := run.New(g)
	u := r.Open()[0] // L
	h1 := g.Spec().Implementations("L")[0]
	st, err := r.Apply(u, h1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copies != 1 || len(st.IDs) != 1 || len(st.IDs[0]) != 3 {
		t.Fatalf("step shape wrong: %+v", st)
	}
	// s0 -> s1 -> F -> t1 -> t0 wiring.
	if !r.Graph.HasEdge(r.StartIDs[0], st.IDs[0][0]) {
		t.Fatal("s0 must feed s1")
	}
	if !r.Graph.HasEdge(st.IDs[0][2], r.StartIDs[2]) {
		t.Fatal("t1 must feed t0")
	}
	if r.NameOf(st.IDs[0][1]) != "F" {
		t.Fatal("F vertex mislabeled")
	}
	if len(r.Open()) != 1 || r.NameOf(r.Open()[0]) != "F" {
		t.Fatalf("open after step: %v", r.Open())
	}
}

func TestApplyLoopSeriesCopies(t *testing.T) {
	g := grammar(t)
	r := run.New(g)
	h1 := g.Spec().Implementations("L")[0]
	st, err := r.Apply(r.Open()[0], h1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.IDs) != 3 {
		t.Fatalf("copies = %d", len(st.IDs))
	}
	// Series: sink of copy c feeds source of copy c+1; copies ordered.
	for c := 0; c+1 < 3; c++ {
		if !r.Graph.HasEdge(st.IDs[c][2], st.IDs[c+1][0]) {
			t.Fatalf("copy %d sink must feed copy %d source", c, c+1)
		}
	}
	if !r.Graph.Reaches(st.IDs[0][1], st.IDs[2][1]) {
		t.Fatal("earlier loop copy must reach later")
	}
	if r.Graph.Reaches(st.IDs[2][0], st.IDs[0][2]) {
		t.Fatal("later loop copy must not reach earlier")
	}
}

func TestApplyForkParallelCopies(t *testing.T) {
	g := grammar(t)
	r := run.New(g)
	r.Apply(r.Open()[0], g.Spec().Implementations("L")[0], 1)
	h2 := g.Spec().Implementations("F")[0]
	st, err := r.Apply(r.Open()[0], h2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph.Reaches(st.IDs[0][0], st.IDs[1][0]) || r.Graph.Reaches(st.IDs[1][0], st.IDs[0][0]) {
		t.Fatal("fork copies must be mutually unreachable")
	}
}

func TestApplyValidation(t *testing.T) {
	g := grammar(t)
	r := run.New(g)
	u := r.Open()[0]
	h1 := g.Spec().Implementations("L")[0]
	h2 := g.Spec().Implementations("F")[0]
	if _, err := r.Apply(u, h2, 1); err == nil {
		t.Fatal("wrong implementation accepted")
	}
	if _, err := r.Apply(u, h1, 0); err == nil {
		t.Fatal("zero copies accepted")
	}
	if _, err := r.Apply(r.StartIDs[0], h1, 1); err == nil {
		t.Fatal("atomic target accepted")
	}
	if _, err := r.Apply(999, h1, 1); err == nil {
		t.Fatal("unknown target accepted")
	}
	r.Apply(u, h1, 1)
	if _, err := r.Apply(u, h1, 1); err == nil {
		t.Fatal("tombstone target accepted")
	}
	// Multi-copy of a plain module is rejected.
	f := r.Open()[0]
	r.Apply(f, h2, 1)
	a := r.Open()[0] // A, plain
	h3 := g.Spec().Implementations("A")[0]
	if _, err := r.Apply(a, h3, 2); err == nil {
		t.Fatal("multiple copies of a plain module accepted")
	}
}

// deriveAll completes the run with minimal choices.
func deriveAll(t *testing.T, r *run.Run) {
	t.Helper()
	for !r.Complete() {
		u := r.Open()[0]
		impls := r.Grammar.Spec().Implementations(r.NameOf(u))
		// Cheapest implementation: fewest composite vertices.
		best := impls[0]
		bestCost := 1 << 30
		for _, id := range impls {
			c := r.Grammar.MinExpansion(r.NameOf(u)) // not exact; use graph size
			gg := r.Grammar.Spec().Graph(id).G
			c = gg.NumVertices()
			for v := 0; v < gg.NumVertices(); v++ {
				if r.Grammar.Spec().Kind(gg.Name(graph.VertexID(v))).Composite() {
					c += 100
				}
			}
			if c < bestCost {
				best, bestCost = id, c
			}
		}
		if _, err := r.Apply(u, best, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpecOfTracksEveryVertex(t *testing.T) {
	r := run.New(grammar(t))
	deriveAll(t, r)
	for v := 0; v < r.Graph.NumVertices(); v++ {
		if r.SpecOf[v].IsZero() {
			t.Fatalf("vertex %d has no spec ref", v)
		}
	}
}

func TestExecutionTopologicalAndComplete(t *testing.T) {
	r := run.New(grammar(t))
	if _, err := r.Execution(nil); err == nil {
		t.Fatal("execution of incomplete run accepted")
	}
	deriveAll(t, r)
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != r.Size() {
		t.Fatalf("execution has %d events for %d vertices", len(evs), r.Size())
	}
	seen := make(map[graph.VertexID]bool)
	for _, ev := range evs {
		for _, p := range ev.Preds {
			if !seen[p] {
				t.Fatalf("vertex %d inserted before predecessor %d", ev.V, p)
			}
		}
		if seen[ev.V] {
			t.Fatalf("vertex %d inserted twice", ev.V)
		}
		seen[ev.V] = true
		if ev.Ref.IsZero() {
			t.Fatalf("event for %d lacks spec ref", ev.V)
		}
	}
}

func TestExecutionRandomOrderIsTopological(t *testing.T) {
	r := run.New(grammar(t))
	deriveAll(t, r)
	rng := rand.New(rand.NewSource(3))
	evs, err := r.Execution(rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.VertexID]bool)
	for _, ev := range evs {
		for _, p := range ev.Preds {
			if !seen[p] {
				t.Fatal("random execution violates topological order")
			}
		}
		seen[ev.V] = true
	}
}

func TestExecutionFirstEventIsG0Source(t *testing.T) {
	r := run.New(grammar(t))
	deriveAll(t, r)
	evs, _ := r.Execution(nil)
	if evs[0].Ref.Graph != spec.StartGraph || len(evs[0].Preds) != 0 {
		t.Fatal("execution must start at the source of g0")
	}
	if r.NameOf(evs[0].V) != "s0" {
		t.Fatalf("first event executes %s", r.NameOf(evs[0].V))
	}
}

// TestExecutionNilIsFirstReadyFirst pins the order Execution(nil)
// takes: vertices in the order they become ready, not by id. Two
// parallel copies of x → y become ready as x, x, y, y, while their ids
// run x, y, x, y.
func TestExecutionNilIsFirstReadyFirst(t *testing.T) {
	g := spec.MustCompile(spec.NewBuilder().Fork("F").
		Start("g0", spec.G([]string{"s", "F", "t"}, [2]string{"s", "F"}, [2]string{"F", "t"})).
		Implement("F", "h", spec.G([]string{"x", "y"}, [2]string{"x", "y"})).
		MustBuild())
	r := run.New(g)
	if _, err := r.Apply(r.Open()[0], g.Spec().Implementations("F")[0], 2); err != nil {
		t.Fatal(err)
	}
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.VertexID
	for _, ev := range evs {
		got = append(got, ev.V)
	}
	// s = 0, t = 2, the copies' x and y are 3, 4 and 5, 6.
	if want := []graph.VertexID{0, 3, 5, 4, 6, 2}; !slices.Equal(got, want) {
		t.Fatalf("Execution(nil) = %v, want first-ready-first %v (smallest-id-first is [0 3 4 5 6 2])", got, want)
	}
}
