package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// paperDerivation reproduces the derivation of Figure 5 on the running
// example: L expands to two series copies of h1; the first copy's F
// expands to two parallel copies of h2; the first h2's A recurses
// through h3 → h6 → h4; remaining composites finish minimally.
func paperDerivation(t *testing.T) (*run.Run, *core.DerivationLabeler) {
	t.Helper()
	g := spec.MustCompile(wfspecs.RunningExample())
	s := g.Spec()
	impl := func(name string, i int) spec.GraphID { return s.Implementations(name)[i] }
	r := run.New(g)
	d := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
	if err := d.Start(r.StartIDs); err != nil {
		t.Fatal(err)
	}
	apply := func(u graph.VertexID, id spec.GraphID, copies int) *run.Step {
		st, err := r.Apply(u, id, copies)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Apply(st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// u1 = the L vertex of g0.
	stL := apply(r.StartIDs[1], impl("L", 0), 2)
	// First copy's F → P(h2, h2); second copy's F → single h2.
	stF1 := apply(stL.IDs[0][1], impl("F", 0), 2)
	apply(stL.IDs[1][1], impl("F", 0), 1)
	// First h2 copy's A → h3 (recursion opens).
	stA := apply(stF1.IDs[0][1], impl("A", 0), 1)
	// h3's B → h5; h3's C → h6; h6's A → h4 (recursion closes).
	apply(stA.IDs[0][1], impl("B", 0), 1)
	stC := apply(stA.IDs[0][2], impl("C", 0), 1)
	apply(stC.IDs[0][1], impl("A", 1), 1)
	// Remaining open composites: second h2 copy's A, second loop copy's
	// F's A — close them with h4.
	for !r.Complete() {
		u := r.Open()[0]
		apply(u, impl(r.NameOf(u), 1), 1)
	}
	return r, d
}

func TestPaperDerivationShape(t *testing.T) {
	r, d := paperDerivation(t)
	// Figure 3 numbers 18 of the run's vertices and elides the second
	// fork copy's interior ("we show only the detailed execution for
	// one copy of h2"); the fully expanded run has 24 atomic vertices
	// under this derivation.
	if got := r.Size(); got != 24 {
		t.Fatalf("run size = %d, want 24", got)
	}
	// Explicit parse tree of Figure 9: the deepest path is root → L →
	// h1-copy → F → h2-copy → R → h3-member → B-expansion: 8 levels.
	tree := d.Tree()
	if got := tree.Depth(); got != 8 {
		t.Fatalf("tree depth = %d levels, want 8", got)
	}
	// Lemma 4.1: depth as edge count ≤ 2|Σ\Δ| = 10.
	if tree.Depth()-1 > 10 {
		t.Fatal("Lemma 4.1 depth bound violated")
	}
}

// findByName returns run vertices with the given module name in id
// order.
func findByName(r *run.Run, name string) []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < r.Graph.NumVertices(); v++ {
		vid := graph.VertexID(v)
		if !r.Graph.IsTombstone(vid) && r.NameOf(vid) == name {
			out = append(out, vid)
		}
	}
	return out
}

// TestExample11Queries checks the four query cases the paper walks
// through (Examples 11 and 13) on the Figure 3 run:
// v5 ; v16 (L case), v5 vs v13 (F case), v5 ; v8 (R case),
// v5 ; v11 (N case).
func TestExample11Queries(t *testing.T) {
	r, d := paperDerivation(t)
	v5 := findByName(r, "s5")[0]  // source of h5 (B's expansion)
	v8 := findByName(r, "s4")[0]  // source of the inner h4 (recursion)
	v16 := findByName(r, "s1")[1] // source of the second loop copy
	v11 := findByName(r, "t3")[0] // sink of h3
	// v13: a vertex of the second (parallel) h2 copy: its s2.
	v13 := findByName(r, "s2")[1]

	cases := []struct {
		name string
		a, b graph.VertexID
		want bool
	}{
		{"L-case v5;v16", v5, v16, true},
		{"L-case v16;v5", v16, v5, false},
		{"F-case v5;v13", v5, v13, false},
		{"F-case v13;v5", v13, v5, false},
		{"R-case v5;v8", v5, v8, true},
		{"R-case v8;v5", v8, v5, false},
		{"N-case v5;v11", v5, v11, true},
		{"N-case v11;v5", v11, v5, false},
	}
	for _, c := range cases {
		if got := d.Reach(c.a, c.b); got != c.want {
			t.Errorf("%s: π = %v, want %v", c.name, got, c.want)
		}
		// Ground truth agrees.
		if truth := r.Graph.Reaches(c.a, c.b); truth != c.want {
			t.Errorf("%s: ground truth %v disagrees with the paper", c.name, truth)
		}
	}
}

// TestExample12LabelStructure checks φ_g(v5)'s entry structure from
// Example 12: eight entries with types N,L,N,F,N,R,N,N; the h3-level
// entry carries rec flags (true, false) because B reaches C but not
// vice versa; the final entry points at s5 of h5.
func TestExample12LabelStructure(t *testing.T) {
	r, d := paperDerivation(t)
	s := r.Grammar.Spec()
	v5 := findByName(r, "s5")[0]
	l := d.MustLabel(v5)
	wantTypes := []string{"N", "L", "N", "F", "N", "R", "N", "N"}
	if l.Len() != len(wantTypes) {
		t.Fatalf("φ(v5) has %d entries, want %d: %s", l.Len(), len(wantTypes), l)
	}
	for i, w := range wantTypes {
		if l.Entries[i].Type.String() != w {
			t.Fatalf("entry %d type %s, want %s (%s)", i, l.Entries[i].Type, w, l)
		}
	}
	// Loop and fork copies are the first of their groups.
	if l.Entries[2].Index != 1 || l.Entries[4].Index != 1 || l.Entries[6].Index != 1 {
		t.Fatalf("copy indexes wrong: %s", l)
	}
	// Entry(x6, u4): origin is the B vertex of h3, whose recursion flags
	// π derives against h3's designated vertex C: rec1 = B;C = true,
	// rec2 = C;B = false.
	e6 := l.Entries[6]
	h3 := s.Implementations("A")[0]
	if e6.Skl.Graph != h3 || s.Graph(h3).G.Name(e6.Skl.V) != "B" {
		t.Fatalf("entry 6 origin wrong: %s", l)
	}
	w := spec.VertexRef{Graph: h3, V: r.Grammar.Designated(h3)}
	if s.Graph(h3).G.Name(w.V) != "C" || !d.Skeleton().Pi(e6.Skl, w) || d.Skeleton().Pi(w, e6.Skl) {
		t.Fatalf("entry 6 rec flags against %v, want (true,false)", w)
	}
	// Final entry: s5 of h5.
	e7 := l.Entries[7]
	h5 := s.Implementations("B")[0]
	if e7.Skl.Graph != h5 || s.Graph(h5).G.Name(e7.Skl.V) != "s5" {
		t.Fatalf("entry 7 wrong: %s", l)
	}
	// φ(v16) = three entries: root, L node, copy-2 member.
	v16 := findByName(r, "s1")[1]
	l16 := d.MustLabel(v16)
	if l16.Len() != 3 || l16.Entries[1].Type.String() != "L" || l16.Entries[2].Index != 2 {
		t.Fatalf("φ(v16) = %s", l16)
	}
}

// verifyAllPairs checks π against BFS ground truth for every ordered
// pair of live vertices.
func verifyAllPairs(t *testing.T, r *run.Run, reach func(v, w graph.VertexID) bool, tag string) {
	t.Helper()
	live := r.Graph.LiveVertices()
	for _, v := range live {
		for _, w := range live {
			want := r.Graph.Reaches(v, w)
			if got := reach(v, w); got != want {
				t.Fatalf("%s: π(%d→%d) = %v, truth %v (names %s→%s)",
					tag, v, w, got, want, r.NameOf(v), r.NameOf(w))
			}
		}
	}
}

func TestPaperDerivationAllPairs(t *testing.T) {
	r, d := paperDerivation(t)
	verifyAllPairs(t, r, d.Reach, "running-example")
}

// testSpecs is the grammar zoo for property tests.
func testSpecs() map[string]*spec.Grammar {
	return map[string]*spec.Grammar{
		"running":       spec.MustCompile(wfspecs.RunningExample()),
		"bioaid":        spec.MustCompile(wfspecs.BioAID()),
		"bioaid-nonrec": spec.MustCompile(wfspecs.BioAIDNonRecursive()),
		"fig12":         spec.MustCompile(wfspecs.Fig12()),
		"synthetic": spec.MustCompile(wfspecs.Synthetic(
			wfspecs.SyntheticParams{SubSize: 8, Depth: 5, RecModules: 1, Seed: 5})),
	}
}

func TestDerivationAllPairsAcrossGrammars(t *testing.T) {
	for name, g := range testSpecs() {
		for seed := int64(0); seed < 4; seed++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: seed})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", name, seed, err)
			}
			verifyAllPairs(t, r, d.Reach, name)
		}
	}
}

func TestDerivationWithBFSSkeleton(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 150, Seed: 7})
	d, err := core.LabelRun(r, skeleton.BFS, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	verifyAllPairs(t, r, d.Reach, "bfs-skeleton")
}

func TestExecutionMatchesDerivationLabels(t *testing.T) {
	for name, g := range testSpecs() {
		for seed := int64(0); seed < 3; seed++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: 100, Seed: seed})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := r.Execution(nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.LabelExecution(r.Grammar, evs, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", name, seed, err)
			}
			for _, v := range r.Graph.LiveVertices() {
				dl := d.MustLabel(v)
				el, ok := e.Label(v)
				if !ok {
					t.Fatalf("%s: execution labeler missed vertex %d", name, v)
				}
				if !dl.Equal(el) {
					t.Fatalf("%s/seed%d: labels differ for %d (%s):\n deriv: %s\n  exec: %s",
						name, seed, v, r.NameOf(v), dl, el)
				}
			}
		}
	}
}

func TestExecutionRandomOrderCorrect(t *testing.T) {
	for name, g := range testSpecs() {
		for seed := int64(0); seed < 3; seed++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: 90, Seed: seed})
			rng := rand.New(rand.NewSource(seed * 31))
			evs, err := r.Execution(rng)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.LabelExecution(r.Grammar, evs, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", name, seed, err)
			}
			verifyAllPairs(t, r, e.Reach, name+"-random-exec")
		}
	}
}

// TestIntermediateGraphValidity checks the dynamic guarantee of
// Definition 9: after every derivation step, the labels issued so far
// answer reachability correctly on the intermediate graph — including
// for composite vertices that will later be replaced (Remark 1).
func TestIntermediateGraphValidity(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := run.New(g)
	d := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
	if err := d.Start(r.StartIDs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	check := func() {
		live := r.Graph.LiveVertices()
		for k := 0; k < 200; k++ {
			v := live[rng.Intn(len(live))]
			w := live[rng.Intn(len(live))]
			want := r.Graph.Reaches(v, w)
			if got := d.Reach(v, w); got != want {
				t.Fatalf("intermediate graph: π(%d→%d)=%v, truth %v", v, w, got, want)
			}
		}
	}
	check()
	for !r.Complete() {
		u := r.Open()[rng.Intn(len(r.Open()))]
		impls := g.Spec().Implementations(r.NameOf(u))
		impl := impls[rng.Intn(len(impls))]
		copies := 1
		if k := g.Spec().Kind(r.NameOf(u)); (k == spec.Loop || k == spec.Fork) && r.Size() < 80 {
			copies = 1 + rng.Intn(3)
		}
		st, err := r.Apply(u, impl, copies)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Apply(st); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

// TestCompositeLabelsAreInMemoryOnly: the label a derivation issues
// for a not-yet-expanded composite vertex answers queries (Remark 1)
// but ends on a vertex no encoded leaf can name, so the codec refuses it
// — Encode, EncodedLen and BitLen alike — with a message that says so,
// while the labels of the same graph's atomic vertices encode.
func TestCompositeLabelsAreInMemoryOnly(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := run.New(g)
	d := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
	if err := d.Start(r.StartIDs); err != nil {
		t.Fatal(err)
	}
	codec := label.NewCodec(g)
	for sv, v := range r.StartIDs {
		l := d.MustLabel(v)
		if !g.Spec().Kind(r.NameOf(v)).Composite() {
			if got, err := codec.Decode(codec.Encode(l)); err != nil || !got.Equal(l) {
				t.Fatalf("g0:%d: %s decodes to %s, %v", sv, l, got, err)
			}
			continue
		}
		for name, measure := range map[string]func(label.Label){
			"Encode":     func(l label.Label) { codec.Encode(l) },
			"EncodedLen": func(l label.Label) { codec.EncodedLen(l) },
			"BitLen":     func(l label.Label) { codec.BitLen(l) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "no atomic vertex") {
						t.Errorf("%s of composite g0:%d's label %s: panic %q, want a refusal naming it", name, sv, l, msg)
					}
				}()
				measure(l)
			}()
		}
	}
}

// TestExecutionIntermediateValidity does the same for the
// execution-based labeler: after every insertion, all labeled pairs
// answer correctly on the inserted-so-far subgraph.
func TestExecutionIntermediateValidity(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 60, Seed: 3})
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	var inserted []graph.VertexID
	rng := rand.New(rand.NewSource(5))
	for _, ev := range evs {
		if _, err := e.Insert(ev); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, ev.V)
		for k := 0; k < 30; k++ {
			v := inserted[rng.Intn(len(inserted))]
			w := inserted[rng.Intn(len(inserted))]
			// Ground truth on the final graph equals truth on the
			// prefix graph for already-inserted vertices (insertions
			// preserve reachability).
			want := r.Graph.Reaches(v, w)
			if got := e.Reach(v, w); got != want {
				t.Fatalf("after inserting %d: π(%d→%d)=%v, want %v", ev.V, v, w, got, want)
			}
		}
	}
}

// TestLabelImmutability: labels captured right after assignment equal
// the labels at the end of the run.
func TestLabelImmutability(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	r := run.New(g)
	d := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
	if err := d.Start(r.StartIDs); err != nil {
		t.Fatal(err)
	}
	early := make(map[graph.VertexID]string)
	snap := func(ids []graph.VertexID) {
		for _, v := range ids {
			early[v] = d.MustLabel(v).String()
		}
	}
	snap(r.StartIDs)
	rng := rand.New(rand.NewSource(17))
	for !r.Complete() {
		u := r.Open()[0]
		impls := g.Spec().Implementations(r.NameOf(u))
		st, err := r.Apply(u, impls[rng.Intn(len(impls))], 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Apply(st); err != nil {
			t.Fatal(err)
		}
		for _, row := range st.IDs {
			snap(row)
		}
	}
	for v, want := range early {
		if got := d.MustLabel(v).String(); got != want {
			t.Fatalf("label of %d changed from %s to %s", v, want, got)
		}
	}
}

func TestNonlinearFig6BothModes(t *testing.T) {
	g := spec.MustCompile(wfspecs.Fig6())
	for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
		for seed := int64(0); seed < 5; seed++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: 80, Seed: seed})
			d, err := core.LabelRun(r, skeleton.TCL, mode)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			verifyAllPairs(t, r, d.Reach, "fig6-"+mode.String())
			// Execution-based too.
			evs, _ := r.Execution(nil)
			e, err := core.LabelExecution(g, evs, skeleton.TCL, mode)
			if err != nil {
				t.Fatalf("fig6 exec mode %v: %v", mode, err)
			}
			verifyAllPairs(t, r, e.Reach, "fig6-exec-"+mode.String())
		}
	}
}

func TestNonlinearSyntheticBothModes(t *testing.T) {
	g := spec.MustCompile(wfspecs.Synthetic(
		wfspecs.SyntheticParams{SubSize: 7, Depth: 4, RecModules: 2, Seed: 11}))
	for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
		r := gen.MustGenerate(g, gen.Options{TargetSize: 150, Seed: 2})
		d, err := core.LabelRun(r, skeleton.TCL, mode)
		if err != nil {
			t.Fatal(err)
		}
		verifyAllPairs(t, r, d.Reach, "nonlinear-"+mode.String())
	}
}

func TestRModeNoneOnLinearGrammar(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: 13})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeNone)
	if err != nil {
		t.Fatal(err)
	}
	verifyAllPairs(t, r, d.Reach, "linear-noR")
}

// TestLemma41DepthBound: for linear recursive grammars the explicit
// parse tree depth (edge count) is at most 2|Σ\Δ|, independent of run
// size.
func TestLemma41DepthBound(t *testing.T) {
	for name, g := range testSpecs() {
		if !linearRecursive(g) {
			continue
		}
		composites := len(g.Spec().CompositeNames())
		for _, size := range []int{50, 400, 2000} {
			r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: int64(size)})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatal(err)
			}
			depth := d.Tree().Depth() - 1 // edges
			if depth > 2*composites {
				t.Fatalf("%s size %d: depth %d > 2|Σ\\Δ| = %d", name, size, depth, 2*composites)
			}
		}
	}
}

// TestTheorem3LengthBound: every label has at most d_t entries and at
// most d_t·(log θ_t + log n_G + c) bits under the canonical encoding.
func TestTheorem3LengthBound(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 3000, Seed: 21})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	tree := d.Tree()
	dt := tree.Depth()
	theta := 0
	walk(tree, func(n *parsetree.Node) { theta = max(theta, len(n.Children)) })
	logTheta := 1
	for 1<<logTheta < theta {
		logTheta++
	}
	cod := labelCodec(g)
	bound := dt * (logTheta + pointerBits(g) + 10)
	for _, v := range r.Graph.LiveVertices() {
		l := d.MustLabel(v)
		if l.Len() > dt {
			t.Fatalf("label has %d entries, tree depth %d", l.Len(), dt)
		}
		if bits := cod.BitLen(l); bits > bound {
			t.Fatalf("label %d bits exceeds Theorem 3 bound %d", bits, bound)
		}
	}
}

func TestDerivationLabelerErrors(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := run.New(g)
	d := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
	h1 := g.Spec().Implementations("L")[0]
	st, _ := r.Apply(r.StartIDs[1], h1, 1)
	if err := d.Apply(st); err == nil {
		t.Fatal("Apply before Start accepted")
	}
	// Fresh pair for the remaining error cases.
	r2 := run.New(g)
	d2 := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
	if err := d2.Start(r2.StartIDs); err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(r2.StartIDs); err == nil {
		t.Fatal("double Start accepted")
	}
	st2, _ := r2.Apply(r2.StartIDs[1], h1, 2)
	if err := d2.Apply(st2); err != nil {
		t.Fatal(err)
	}
	if err := d2.Apply(st2); err == nil {
		t.Fatal("double Apply accepted")
	}
	bogus := *st2
	bogus.Target = 999
	if err := d2.Apply(&bogus); err == nil {
		t.Fatal("unknown target accepted")
	}
	short := *st2
	short.Copies = 3
	if err := d2.Apply(&short); err == nil {
		t.Fatal("mismatched id rows accepted")
	}
}

func TestExecutionLabelerErrors(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	// Must start with g0's source.
	bad := run.Event{V: 0, Ref: spec.VertexRef{Graph: 1, V: 0}}
	if _, err := e.Insert(bad); err == nil {
		t.Fatal("execution starting off g0 accepted")
	}
	ok := run.Event{V: 0, Ref: spec.VertexRef{Graph: 0, V: 0}}
	if _, err := e.Insert(ok); err != nil {
		t.Fatal(err)
	}
	// A second parentless vertex is invalid.
	if _, err := e.Insert(run.Event{V: 1, Ref: spec.VertexRef{Graph: 0, V: 2}}); err == nil {
		t.Fatal("parentless non-source accepted")
	}
	// Unknown graph/vertex refs.
	if _, err := e.Insert(run.Event{V: 2, Ref: spec.VertexRef{Graph: 99, V: 0}, Preds: []graph.VertexID{0}}); err == nil {
		t.Fatal("unknown graph accepted")
	}
	if _, err := e.Insert(run.Event{V: 2, Ref: spec.VertexRef{Graph: 0, V: 99}, Preds: []graph.VertexID{0}}); err == nil {
		t.Fatal("unknown vertex accepted")
	}
	// An event whose predecessors match nothing.
	if _, err := e.Insert(run.Event{V: 3, Ref: spec.VertexRef{Graph: 2, V: 0}, Preds: []graph.VertexID{0}}); err == nil {
		t.Fatal("unattachable source accepted")
	}
}

func TestPiPanicsOnEmptyLabel(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	sch := skeleton.New(skeleton.TCL, g)
	defer func() {
		if recover() == nil {
			t.Fatal("π on empty label must panic")
		}
	}()
	core.Pi(sch, labelOf(), labelOf())
}

func TestLabelAccessors(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 40, Seed: 1})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Label(9999); ok {
		t.Fatal("label for unknown vertex")
	}
	if d.LabelCount() == 0 || d.Grammar() != g || d.Skeleton() == nil {
		t.Fatal("accessors broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLabel of unknown vertex must panic")
		}
	}()
	d.MustLabel(9999)
}

func TestRModeString(t *testing.T) {
	if core.RModeDesignated.String() != "designated-R" || core.RModeNone.String() != "no-R" {
		t.Fatal("RMode strings wrong")
	}
}
