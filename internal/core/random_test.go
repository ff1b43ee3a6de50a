package core_test

import (
	"math"
	"math/rand"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestRandomLinearGrammarsProperty is the correctness hammer: across
// many randomly generated well-formed linear-recursive grammars and
// random runs, π must agree with BFS ground truth for all pairs, the
// execution labeler must reproduce the derivation labels, and both
// skeleton schemes must agree.
func TestRandomLinearGrammarsProperty(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		p := wfspecs.RandomParams{
			Plain:        int(seed % 4),
			Loops:        int(seed % 3),
			Forks:        int((seed + 1) % 3),
			RecursionLen: int(seed % 4), // 0..3: none, self, pair, triple
			MaxGraphSize: 5 + int(seed%5),
			Seed:         seed * 1013,
		}
		s := wfspecs.RandomSpec(p)
		g, err := spec.Compile(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !linearRecursive(g) {
			t.Fatalf("seed %d: RandomSpec produced a %v grammar", seed, g.Class())
		}
		r := gen.MustGenerate(g, gen.Options{TargetSize: 90, Seed: seed})
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dBFS, err := core.LabelRun(r, skeleton.BFS, core.RModeDesignated)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		evs, err := r.Execution(nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatalf("seed %d (execution): %v", seed, err)
		}
		live := r.Graph.LiveVertices()
		for _, v := range live {
			el, ok := e.Label(v)
			if !ok || !el.Equal(d.MustLabel(v)) {
				t.Fatalf("seed %d: execution label differs for %d", seed, v)
			}
			for _, w := range live {
				want := r.Graph.Reaches(v, w)
				if d.Reach(v, w) != want {
					t.Fatalf("seed %d: TCL π(%d,%d) != truth %v", seed, v, w, want)
				}
				if dBFS.Reach(v, w) != want {
					t.Fatalf("seed %d: BFS π(%d,%d) != truth %v", seed, v, w, want)
				}
			}
		}
	}
}

// TestRandomLinearGrammarsLabelLength is the paper's headline bound as a
// property: on a linear-recursive grammar a label is O(log n) bits
// (Theorem 3), with constants the grammar alone fixes. A label has one
// entry per level of the compressed parse tree, at most 2|Σ\Δ|+1 of
// them (Lemma 4.1); an entry is 2 type bits, an index no larger than
// the run (⌊log₂ n⌋+1 bits), a skeleton pointer of ⌈log₂ n_G⌉ bits and
// 2 recursion flags at most. So with c = 2|Σ\Δ|+1 and d = c·(5+⌈log₂
// n_G⌉), the longest label of a run of n vertices is at most
// c·log₂ n + d bits — over the same random grammars the correctness
// property draws, at run sizes two orders of magnitude apart. A labeler
// that stopped compressing recursion would add a level per unfolding
// and leave the bound behind within a few hundred vertices. (The
// nonlinear family has no such bound — Theorem 1 — and asserts
// correctness only.)
func TestRandomLinearGrammarsLabelLength(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		s := wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain:        int(seed % 4),
			Loops:        int(seed % 3),
			Forks:        int((seed + 1) % 3),
			RecursionLen: int(seed % 4),
			MaxGraphSize: 5 + int(seed%5),
			Seed:         seed * 1013,
		})
		g, err := spec.Compile(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !linearRecursive(g) {
			t.Fatalf("seed %d: RandomSpec produced a %v grammar", seed, g.Class())
		}
		codec := label.NewCodec(g)
		c := 2*len(s.CompositeNames()) + 1
		d := c * (5 + pointerBits(g))
		for _, size := range []int{100, 1000, 10000} {
			for _, deep := range []bool{false, true} {
				r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: seed, DepthFirst: deep})
				lr, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
				if err != nil {
					t.Fatalf("seed %d size %d: %v", seed, size, err)
				}
				live := r.Graph.LiveVertices()
				bound := float64(c)*math.Log2(float64(len(live))) + float64(d)
				for _, v := range live {
					l := lr.MustLabel(v)
					if l.Len() > c {
						t.Fatalf("seed %d, n=%d: vertex %d has a label of %d entries, Lemma 4.1 allows %d", seed, len(live), v, l.Len(), c)
					}
					if bits := codec.BitLen(l); float64(bits) > bound {
						t.Fatalf("seed %d, n=%d: vertex %d has a label of %d bits, over %d·log₂ n + %d = %.0f", seed, len(live), v, bits, c, d, bound)
					}
				}
			}
		}
	}
}

// TestRandomNonlinearGrammarsProperty exercises the Section 6
// adaptation on random nonlinear grammars, in both compression modes,
// with depth-first and breadth-first derivations.
func TestRandomNonlinearGrammarsProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := wfspecs.RandomParams{
			Plain:        int(seed % 3),
			Loops:        int(seed % 2),
			Forks:        int(seed % 2),
			RecursionLen: 1 + int(seed%3),
			NonlinearRec: true,
			MaxGraphSize: 6,
			Seed:         seed * 509,
		}
		s := wfspecs.RandomSpec(p)
		g, err := spec.Compile(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if linearRecursive(g) {
			t.Fatalf("seed %d: expected nonlinear grammar", seed)
		}
		for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
			for _, deep := range []bool{false, true} {
				r := gen.MustGenerate(g, gen.Options{TargetSize: 70, Seed: seed, DepthFirst: deep})
				d, err := core.LabelRun(r, skeleton.TCL, mode)
				if err != nil {
					t.Fatalf("seed %d mode %v: %v", seed, mode, err)
				}
				live := r.Graph.LiveVertices()
				for _, v := range live {
					for _, w := range live {
						if d.Reach(v, w) != r.Graph.Reaches(v, w) {
							t.Fatalf("seed %d mode %v deep=%v: π(%d,%d) wrong", seed, mode, deep, v, w)
						}
					}
				}
			}
		}
	}
}

// TestRandomGrammarsRandomExecutionOrders stresses the execution
// labeler's inference under arbitrary topological insertion orders.
func TestRandomGrammarsRandomExecutionOrders(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: 2, Loops: 1, Forks: 1, RecursionLen: 2,
			MaxGraphSize: 6, Seed: seed * 37,
		})
		g := spec.MustCompile(s)
		r := gen.MustGenerate(g, gen.Options{TargetSize: 80, Seed: seed})
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(trial)))
			evs, err := r.Execution(rng)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			live := r.Graph.LiveVertices()
			for k := 0; k < 600; k++ {
				v := live[rng.Intn(len(live))]
				w := live[rng.Intn(len(live))]
				if e.Reach(v, w) != r.Graph.Reaches(v, w) {
					t.Fatalf("seed %d trial %d: π(%d,%d) wrong", seed, trial, v, w)
				}
			}
		}
	}
}

// TestNamedEventResolution: the Section 5.3 name-based variant
// reproduces the ref-based labels exactly on name-resolvable specs.
func TestNamedEventResolution(t *testing.T) {
	for _, s := range []*spec.Spec{wfspecs.RunningExample(), wfspecs.BioAID()} {
		g := spec.MustCompile(s)
		for seed := int64(0); seed < 3; seed++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: seed})
			evs, err := r.Execution(nil)
			if err != nil {
				t.Fatal(err)
			}
			named := make([]core.NamedEvent, len(evs))
			for i, ev := range evs {
				named[i] = core.NamedEvent{V: ev.V, Name: r.NameOf(ev.V), Preds: ev.Preds}
			}
			e, err := core.LabelNamedExecution(g, named, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range r.Graph.LiveVertices() {
				el, ok := e.Label(v)
				if !ok || !el.Equal(d.MustLabel(v)) {
					t.Fatalf("named labels differ for %d (%s)", v, r.NameOf(v))
				}
			}
		}
	}
}

// TestNamedEventRejectsUnresolvableSpec: Figure 6 repeats names, so
// name-based insertion must refuse it.
func TestNamedEventRejectsUnresolvableSpec(t *testing.T) {
	g := spec.MustCompile(wfspecs.Fig6())
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	_, err := e.InsertNamed(core.NamedEvent{V: 0, Name: "s0"})
	if err == nil {
		t.Fatal("unresolvable spec accepted")
	}
}

// TestNamedEventUnknownName: a bogus module name cannot be resolved.
func TestNamedEventUnknownName(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	if _, err := e.InsertNamed(core.NamedEvent{V: 0, Name: "s0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertNamed(core.NamedEvent{V: 1, Name: "zzz", Preds: []graph.VertexID{0}}); err == nil {
		t.Fatal("unknown module name accepted")
	}
}
