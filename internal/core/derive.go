package core

import (
	"fmt"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// DerivationLabeler is the derivation-based dynamic labeling scheme of
// Section 5.2: it consumes derivation steps g_{i-1}[u/h] ⇒ g_i, grows
// the explicit parse tree per Algorithm 2, and labels every vertex of
// each inserted subgraph per Algorithm 3, before the next step arrives
// and without ever revising a label. The label of a composite vertex
// keeps answering queries after the vertex is expanded (Remark 1), but
// it is in-memory only: label.Codec holds the labels of atomic vertices.
type DerivationLabeler struct {
	base
}

// NewDerivationLabeler builds a labeler for the grammar using the
// given skeleton scheme and recursion-compression mode.
func NewDerivationLabeler(g *spec.Grammar, kind skeleton.Kind, mode RMode) *DerivationLabeler {
	return &DerivationLabeler{base: newBase(g, kind, mode)}
}

// Start labels the start graph g0: startIDs[v] is the run vertex
// standing for spec vertex v of g0 (run.New assigns 0..n-1). It must
// be called exactly once, before any Apply.
func (d *DerivationLabeler) Start(startIDs []graph.VertexID) error {
	if d.root != nil {
		return fmt.Errorf("core: Start called twice")
	}
	g0 := d.g.Spec().Graph(spec.StartGraph).G
	if len(startIDs) != g0.NumVertices() {
		return fmt.Errorf("core: Start got %d ids for %d vertices", len(startIDs), g0.NumVertices())
	}
	root := d.startRoot()
	for v := range startIDs {
		d.bind(root, graph.VertexID(v), startIDs[v])
	}
	return nil
}

// Apply processes one derivation step (Algorithm 2 plus the labeling
// of Algorithm 3). The step must come from the same run builder that
// drives the ground-truth graph, so its IDs are authoritative.
func (d *DerivationLabeler) Apply(st *run.Step) error {
	if d.root == nil {
		return fmt.Errorf("core: Apply before Start")
	}
	info, ok := d.ctx.get(st.Target)
	if !ok {
		return fmt.Errorf("core: unknown replacement target %d", st.Target)
	}
	y, sv := info.node, info.sv
	if y.RunOf[sv] != st.Target {
		return fmt.Errorf("core: target %d is not an open composite", st.Target)
	}
	if y.Groups[sv] != nil {
		return fmt.Errorf("core: composite %d already expanded", st.Target)
	}
	ng := d.g.Spec().Graph(st.Impl)
	name := d.graphOf(y).Name(sv)
	if ng.Owner != name {
		return fmt.Errorf("core: graph %s does not implement %s", ng.Label, name)
	}
	kind := d.g.Spec().Kind(name)
	if st.Copies < 1 || len(st.IDs) != st.Copies {
		return fmt.Errorf("core: malformed step (%d copies, %d id rows)", st.Copies, len(st.IDs))
	}
	if st.Copies > 1 && kind != spec.Loop && kind != spec.Fork {
		return fmt.Errorf("core: %d copies for plain module %s", st.Copies, name)
	}

	isRecursive := d.designatedOf(y.Graph) == sv && sv != graph.None

	switch {
	case isRecursive:
		// Algorithm 2, lines 26-29: the expansion extends the recursion
		// chain as the next child of the enclosing R node.
		rx := y.Parent
		if rx == nil || rx.Kind != label.R {
			return fmt.Errorf("core: recursive vertex outside an R chain")
		}
		x := rx.AddInstance(st.Impl, ng.G.NumVertices(), rx.NextIndex())
		x.Prefix = rx.Prefix
		x.SlotParent, x.SlotVertex = y, sv
		y.Groups[sv] = x
		d.populate(x, st.IDs[0])

	case kind == spec.Loop || kind == spec.Fork:
		// Algorithm 2, lines 6-13: one special L/F node whose children
		// are the copies. A single-copy execution still gets its group
		// node, so the tree shape does not depend on knowing the copy
		// count in advance (which the execution-based variant cannot).
		t := label.L
		if kind == spec.Fork {
			t = label.F
		}
		gx := y.AddSpecial(t, d.g.SlotRank(y.Graph, sv))
		gx.Prefix = d.expansionPrefix(y, sv, specialEntry(gx))
		y.Groups[sv] = gx
		for c := 0; c < st.Copies; c++ {
			x := gx.AddInstance(st.Impl, ng.G.NumVertices(), gx.NextIndex())
			x.Prefix = gx.Prefix
			x.SlotParent, x.SlotVertex = y, sv
			d.populate(x, st.IDs[c])
		}

	case d.designatedOf(st.Impl) != graph.None:
		// Algorithm 2, lines 15-18: the implementation opens a linear
		// recursion, so wrap it in a fresh R node.
		rx := y.AddSpecial(label.R, d.g.SlotRank(y.Graph, sv))
		rx.Prefix = d.expansionPrefix(y, sv, specialEntry(rx))
		y.Groups[sv] = rx
		x := rx.AddInstance(st.Impl, ng.G.NumVertices(), rx.NextIndex())
		x.Prefix = rx.Prefix
		x.SlotParent, x.SlotVertex = y, sv
		d.populate(x, st.IDs[0])

	default:
		// Algorithm 2, line 20: a plain replacement.
		x := y.AddInstance(st.Impl, ng.G.NumVertices(), d.g.SlotRank(y.Graph, sv))
		x.Prefix = d.expansionPrefix(y, sv)
		x.SlotParent, x.SlotVertex = y, sv
		y.Groups[sv] = x
		d.populate(x, st.IDs[0])
	}

	// The composite vertex's label is kept: Remark 1 — replacements
	// preserve reachability among existing vertices, so labels issued
	// for intermediate graphs stay valid and queryable.
	return nil
}

// populate materializes and labels every vertex of a fresh instance.
func (d *DerivationLabeler) populate(x *parsetree.Node, ids []graph.VertexID) {
	gg := d.graphOf(x)
	for v := 0; v < gg.NumVertices(); v++ {
		d.bind(x, graph.VertexID(v), ids[v])
	}
}

// LabelRun is a convenience driver: it generates labels for an entire
// prebuilt derivation (Start plus every recorded step), returning the
// labeler. Useful for tests and benchmarks that already hold a
// completed run.
func LabelRun(r *run.Run, kind skeleton.Kind, mode RMode) (*DerivationLabeler, error) {
	d := NewDerivationLabeler(r.Grammar, kind, mode)
	if err := d.Start(r.StartIDs); err != nil {
		return nil, err
	}
	for i := range r.Steps {
		if err := d.Apply(&r.Steps[i]); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	return d, nil
}
