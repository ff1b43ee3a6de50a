package core_test

import (
	"fmt"
	"slices"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// TestTreeCarvingOracle: the parse tree carves child lists and prefixes
// from shared chunks, so a carve that bleeds into a neighbour corrupts a
// node the insertion in progress never looks at. After every insertion
// of every corpus run, in both recursion modes, the whole tree is
// checked against what its shape implies: each node's Prefix equals the
// one recomputed from its parent path and is capped at its length, and
// each child list holds exactly the nodes whose Parent is that node, in
// the order they were created.
func TestTreeCarvingOracle(t *testing.T) {
	for name, r := range diffRuns(t) {
		for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
			evs, err := r.Execution(nil)
			if err != nil {
				t.Fatal(err)
			}
			e := core.NewExecutionLabeler(r.Grammar, skeleton.TCL, mode)
			born := map[*parsetree.Node]int{} // every node seen, and the insertion that created it
			for i, ev := range evs {
				if _, err := e.Insert(ev); err != nil {
					t.Fatalf("%s %v: event %d: %v", name, mode, i, err)
				}
				if err := checkCarving(e, mode, born, i); err != nil {
					t.Fatalf("%s %v: after event %d: %v", name, mode, i, err)
				}
			}
		}
	}
}

// walk visits every node of the subtree rooted at n in preorder.
func walk(n *parsetree.Node, visit func(*parsetree.Node)) {
	visit(n)
	for _, c := range n.Children {
		walk(c, visit)
	}
}

// checkCarving checks the tree of e after insertion now. Nodes first
// reached now are recorded as born now; a node seen earlier that no
// longer hangs where its Parent says fails the child-list count.
func checkCarving(e *core.ExecutionLabeler, mode core.RMode, born map[*parsetree.Node]int, now int) error {
	root := e.Tree()
	walk(root, func(n *parsetree.Node) {
		if _, ok := born[n]; !ok {
			born[n] = now
		}
	})
	children := map[*parsetree.Node]int{}
	for n := range born {
		switch {
		case n.Parent != nil:
			children[n.Parent]++
		case n != root:
			return fmt.Errorf("node %v #%d has no parent", n.Kind, n.Index)
		}
	}
	for n := range born {
		if len(n.Children) != children[n] {
			return fmt.Errorf("%v #%d lists %d children, %d nodes name it their parent", n.Kind, n.Index, len(n.Children), children[n])
		}
		for j, c := range n.Children {
			switch {
			case c.Parent != n:
				return fmt.Errorf("child %d of %v #%d names another parent", j, n.Kind, n.Index)
			case j > 0 && born[c] <= born[n.Children[j-1]]:
				return fmt.Errorf("children %d and %d of %v #%d out of creation order", j-1, j, n.Kind, n.Index)
			case n.Kind != label.N && c.Index != int32(j+1):
				return fmt.Errorf("copy %d of %v #%d has index %d", j, n.Kind, n.Index, c.Index)
			case n.Kind == label.N && n.Groups[slotOfRank(e, n.Graph, c.Index)] != c:
				return fmt.Errorf("child %d of instance #%d is not the expansion of its slot", j, n.Index)
			}
		}
		want := wantPrefix(e, mode, n)
		if got := n.Prefix.Entries; !slices.Equal(got, want) || cap(got) != len(got) {
			return fmt.Errorf("%v #%d: prefix %v (capacity %d), its parent path gives %v", n.Kind, n.Index, n.Prefix, cap(got), label.Label{Entries: want})
		}
	}
	return nil
}

// slotOfRank maps a slot child's index back to the slot it expands: the
// composite vertex of that rank in graph gid.
func slotOfRank(e *core.ExecutionLabeler, gid spec.GraphID, rank int32) graph.VertexID {
	return composites(e.Grammar(), gid)[rank]
}

// wantPrefix recomputes a node's prefix from its parent's: the root has
// none, a copy or chain member shares its group node's, and the
// expansion of slot u of an instance y extends y's prefix by φ's entry
// for u — and a group node by its own entry after that.
func wantPrefix(e *core.ExecutionLabeler, mode core.RMode, n *parsetree.Node) []label.Entry {
	p := n.Parent
	switch {
	case p == nil:
		return nil
	case p.Kind != label.N:
		return p.Prefix.Entries
	}
	u := spec.VertexRef{Graph: p.Graph, V: slotOfRank(e, p.Graph, n.Index)}
	want := append(slices.Clone(p.Prefix.Entries), label.Entry{Index: p.Index, Type: label.N, Skl: u})
	if n.Kind != label.N {
		want = append(want, label.Entry{Index: n.Index, Type: n.Kind, Skl: spec.NoRef})
	}
	return want
}
