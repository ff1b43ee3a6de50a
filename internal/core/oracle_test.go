package core_test

import (
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

// lemma42Oracle is an independent implementation of the query logic:
// instead of comparing label entries (Algorithm 4), it walks the
// explicit parse tree directly and applies Lemma 4.2's four cases
// using the grammar's reachability closures. Differential-testing Pi
// against it validates the label arithmetic end to end.
type lemma42Oracle struct {
	g *spec.Grammar
	d *core.DerivationLabeler
	// ctx per run vertex: recovered from the tree.
	ctx map[graph.VertexID]oracleRef
}

type oracleRef struct {
	node *parsetree.Node
	sv   graph.VertexID
}

func newOracle(g *spec.Grammar, d *core.DerivationLabeler) *lemma42Oracle {
	o := &lemma42Oracle{g: g, d: d, ctx: make(map[graph.VertexID]oracleRef)}
	walk(d.Tree(), func(n *parsetree.Node) {
		if n.Kind != label.N {
			return
		}
		for sv, v := range n.RunOf {
			if v != graph.None {
				o.ctx[v] = oracleRef{n, graph.VertexID(sv)}
			}
		}
	})
	return o
}

// pathToRoot returns the tree nodes from the root down to x.
func pathToRoot(x *parsetree.Node) []*parsetree.Node {
	var up []*parsetree.Node
	for n := x; n != nil; n = n.Parent {
		up = append(up, n)
	}
	for i, j := 0, len(up)-1; i < j; i, j = i+1, j-1 {
		up[i], up[j] = up[j], up[i]
	}
	return up
}

// origin returns the origin of v (context x, spec vertex sv) with
// respect to ancestor instance a: the vertex of a's graph from which v
// derives (Definition 12), found via the slot-parent chain.
func (o *lemma42Oracle) origin(x *parsetree.Node, sv graph.VertexID, a *parsetree.Node) graph.VertexID {
	if x == a {
		return sv
	}
	for n := x; n != nil; n = n.SlotParent {
		if n.SlotParent == a {
			return n.SlotVertex
		}
	}
	panic("oracle: origin not found")
}

// reach applies Lemma 4.2.
func (o *lemma42Oracle) reach(v, w graph.VertexID) bool {
	if v == w {
		return true
	}
	rv, rw := o.ctx[v], o.ctx[w]
	pv, pw := pathToRoot(rv.node), pathToRoot(rw.node)
	// LCA: last common node of the two root paths.
	k := 0
	for k < len(pv) && k < len(pw) && pv[k] == pw[k] {
		k++
	}
	lca := pv[k-1]
	switch lca.Kind {
	case label.L:
		return pv[k].Index < pw[k].Index
	case label.F:
		return false
	case label.R:
		// y = the earlier chain member; the other side's origin wrt y
		// is y's designated recursive vertex.
		y, yw := pv[k], pw[k]
		if y.Index < yw.Index {
			u := o.origin(rv.node, rv.sv, y)
			wRec := o.g.Designated(y.Graph)
			return o.g.Spec().Graph(y.Graph).G.Reaches(u, wRec)
		}
		u := o.origin(rw.node, rw.sv, yw)
		wRec := o.g.Designated(yw.Graph)
		return o.g.Spec().Graph(yw.Graph).G.Reaches(wRec, u)
	default:
		// Non-special LCA (possibly one context is the other's
		// ancestor): compare origins in the LCA's graph.
		u := o.origin(rv.node, rv.sv, lca)
		u2 := o.origin(rw.node, rw.sv, lca)
		return o.g.Spec().Graph(lca.Graph).G.Reaches(u, u2)
	}
}

// TestPiAgainstLemma42Oracle differentially tests Algorithm 4 against
// the tree-walking oracle on a diverse set of runs.
func TestPiAgainstLemma42Oracle(t *testing.T) {
	grammars := []*spec.Grammar{
		spec.MustCompile(wfspecs.RunningExample()),
		spec.MustCompile(wfspecs.BioAID()),
		spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 9, Depth: 5, RecModules: 1, Seed: 2})),
	}
	for gi, g := range grammars {
		for seed := int64(0); seed < 3; seed++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: 150, Seed: seed})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(g, d)
			live := r.Graph.LiveVertices()
			for _, v := range live {
				for _, w := range live {
					got := d.Reach(v, w)
					want := o.reach(v, w)
					if got != want {
						t.Fatalf("grammar %d seed %d: Pi(%d,%d)=%v, oracle=%v",
							gi, seed, v, w, got, want)
					}
				}
			}
		}
	}
}

// TestOracleAgainstGroundTruth sanity-checks the oracle itself.
func TestOracleAgainstGroundTruth(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: 9})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g, d)
	live := r.Graph.LiveVertices()
	for _, v := range live {
		for _, w := range live {
			if o.reach(v, w) != r.Graph.Reaches(v, w) {
				t.Fatalf("oracle(%d,%d) diverges from BFS", v, w)
			}
		}
	}
}

var _ = run.Event{} // keep the run import for the shared helpers
