package core_test

import (
	"fmt"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestIndexesWithinFanout: every index a label carries costs the log θ_t
// bits Algorithm 1 budgets for it. Walking each label down the parse
// tree of the labeler that issued it, an entry under an instance is
// below the number of composite vertices of that instance's graph, and
// an entry under an L, F or R node is a position from 1 to that node's
// child count. Every entry also names exactly one child of the node
// above it — the distinctness π relies on. Both labelers, on BioAID,
// the agent grammar, seeded random linear grammars and the Figure 13
// family at sub-workflow size 160.
func TestIndexesWithinFanout(t *testing.T) {
	runs := map[string]*run.Run{
		"BioAID":       gen.MustGenerate(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 3000, Seed: 1}),
		"synthetic160": gen.MustGenerate(spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 160, Depth: 5, RecModules: 1, Seed: 160})), gen.Options{TargetSize: 3000, Seed: 2}),
	}
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runs["agent"] = tr.Run
	for seed := int64(0); seed < 6; seed++ {
		p := wfspecs.RandomParams{Plain: 1 + int(seed%3), Loops: 1, Forks: 1 + int(seed%2),
			RecursionLen: int(seed % 4), MaxGraphSize: 5 + int(seed%5), Seed: seed*7919 + 1}
		runs[fmt.Sprintf("linear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(p)), gen.Options{TargetSize: 300, Seed: seed})
	}
	for name, r := range runs {
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range r.Graph.LiveVertices() {
			if err := withinFanout(r.Grammar, d.Tree(), d.MustLabel(v)); err != nil {
				t.Fatalf("%s, derivation labeler, vertex %d: %v", name, v, err)
			}
		}
		evs, err := r.Execution(nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.LabelExecution(r.Grammar, evs, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ev := range evs {
			if err := withinFanout(r.Grammar, e.Tree(), e.MustLabel(ev.V)); err != nil {
				t.Fatalf("%s, execution labeler, vertex %d: %v", name, ev.V, err)
			}
		}
	}
}

// withinFanout walks l from the root of tree, checking each entry past
// the first against the node it hangs under.
func withinFanout(g *spec.Grammar, root *parsetree.Node, l label.Label) error {
	x := root
	for i, e := range l.Entries[1:] {
		if x.Kind == label.N {
			if n := len(composites(g, x.Graph)); e.Index < 0 || int(e.Index) >= n {
				return fmt.Errorf("%s: entry %d has index %d under an instance of g%d, which has %d composite vertices", l, i+1, e.Index, x.Graph, n)
			}
		} else if e.Index < 1 || int(e.Index) > len(x.Children) {
			return fmt.Errorf("%s: entry %d has index %d under a %v node of %d children", l, i+1, e.Index, x.Kind, len(x.Children))
		}
		var next *parsetree.Node
		for _, c := range x.Children {
			if c.Index != e.Index {
				continue
			}
			if next != nil {
				return fmt.Errorf("%s: two children of the node above entry %d have index %d", l, i+1, e.Index)
			}
			next = c
		}
		if next == nil || next.Kind != e.Type {
			return fmt.Errorf("%s: entry %d names no %v child of the node above it", l, i+1, e.Type)
		}
		x = next
	}
	return nil
}
