package bench

import (
	"fmt"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// SKL, the state-of-the-art *static* baseline the paper compares
// against in Section 7.4: the skeleton-based labeling scheme of Bao,
// Davidson, Khanna and Roy (SIGMOD 2010, reference [6]). As Section 7.4
// describes it, SKL
//
//   - is static: it takes the entire completed run as input;
//   - supports only non-recursive workflows (loops and forks);
//   - entails skeleton labels over a *global* specification graph in
//     which all composite modules are recursively replaced with their
//     sub-workflows;
//   - assigns each run vertex a label of three indexes plus one
//     skeleton pointer — 3·log n + O(1) bits — and answers queries in
//     constant time.
//
// The original construction is reproduced in behavior rather than
// verbatim: the three indexes are the DFS interval [begin, end] of the
// vertex's parse-tree context (the interval-based tree labeling of [22]
// that Section 7.4 attributes to SKL) plus the packed level-indexed
// path used to type the least common ancestor and to order loop copies;
// the skeleton pointer addresses the global inlined specification.
// Correctness is asserted against ground truth in skl_test.go. Fig01,
// Fig20, Fig21 and Fig22 set it against DRL.

// sklLabel is an SKL reachability label: three indexes — the vertex's
// DFS interval [begin, end] over the run's parse tree with one leaf
// per run vertex (the interval-based scheme of [22] applied to an
// O(n)-node tree, hence two indexes of ⌈log 2n⌉ bits each) and the
// packed level-indexed path of its context — plus the skeleton pointer
// global into the global specification graph. path and types are
// materialized as slices for convenience; their measured size is the
// packed bit count (constant depth × per-level width), see
// sklScheme.bitLen.
type sklLabel struct {
	begin, end int32
	path       []int32          // child indexes from below the root to the context
	types      []label.NodeType // node types from the root (types[0]) down to the context
	global     graph.VertexID   // vertex in the global specification graph
}

// sklScheme holds the per-run SKL index: the interval layout, the
// per-level path widths, and the global skeleton.
type sklScheme struct {
	global skeleton.GraphScheme
	labels map[graph.VertexID]*sklLabel

	intervalBits int
	ptrBits      int
	widths       []int // per tree depth: bits for a path component
}

// sklNode is SKL's private parse-tree node (no R nodes can occur: the
// grammar is non-recursive).
type sklNode struct {
	kind     label.NodeType
	index    int32
	parent   *sklNode
	children []*sklNode
	region   *spec.InlineRegion // instances only
	gid      spec.GraphID
	begin    int32
	end      int32
	depth    int
	path     []int32
	// leafB/leafE are the per-member leaf intervals (instances only;
	// -1 for composite slots).
	leafB, leafE []int32
}

// buildSKL constructs SKL labels for a completed run. It fails on
// recursive grammars (SKL's limitation (2)) and on incomplete runs
// (limitation (1): it is a static scheme).
func buildSKL(r *run.Run, kind skeleton.Kind) (*sklScheme, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("skl: static scheme requires a completed run")
	}
	in, err := r.Grammar.InlineAll()
	if err != nil {
		return nil, fmt.Errorf("skl: %w", err)
	}
	s := &sklScheme{
		global: skeleton.NewGraphScheme(kind, in.Graph),
		labels: make(map[graph.VertexID]*sklLabel),
	}
	s.ptrBits = bitsFor(in.Graph.NumVertices())

	// Rebuild the parse tree from the recorded derivation.
	sp := r.Grammar.Spec()
	g0 := sp.Graph(spec.StartGraph)
	root := &sklNode{kind: label.N, region: in.Root, gid: spec.StartGraph, depth: 0}
	type member struct {
		n  *sklNode
		sv graph.VertexID
	}
	ctx := make(map[graph.VertexID]member) // run vertex (incl. composites) -> context
	for v := 0; v < g0.G.NumVertices(); v++ {
		ctx[r.StartIDs[v]] = member{root, graph.VertexID(v)}
	}
	addChild := func(p *sklNode, kind label.NodeType, index int32) *sklNode {
		c := &sklNode{kind: kind, index: index, parent: p, depth: p.depth + 1}
		c.path = append(append([]int32(nil), p.path...), index)
		p.children = append(p.children, c)
		return c
	}
	altOf := func(name string, impl spec.GraphID) int {
		for i, id := range sp.Implementations(name) {
			if id == impl {
				return i
			}
		}
		return -1
	}
	for i := range r.Steps {
		st := &r.Steps[i]
		m, ok := ctx[st.Target]
		if !ok {
			return nil, fmt.Errorf("skl: step %d targets unknown vertex", i)
		}
		y, cu := m.n, m.sv
		name := sp.Graph(y.gid).G.Name(cu)
		alt := altOf(name, st.Impl)
		if alt < 0 {
			return nil, fmt.Errorf("skl: step %d has foreign implementation", i)
		}
		region := y.region.Slots[cu][alt]
		kindOf := sp.Kind(name)
		parent := y
		if kindOf == spec.Loop || kindOf == spec.Fork {
			t := label.L
			if kindOf == spec.Fork {
				t = label.F
			}
			parent = addChild(y, t, int32(cu)+1)
		}
		for c := 0; c < st.Copies; c++ {
			idx := int32(cu) + 1
			if parent != y {
				idx = int32(c) + 1
			}
			x := addChild(parent, label.N, idx)
			x.region = region
			x.gid = st.Impl
			for v, id := range st.IDs[c] {
				ctx[id] = member{x, graph.VertexID(v)}
			}
		}
	}

	// DFS interval layout with one leaf per run vertex (atomic spec
	// vertices of each instance), plus per-level width collection.
	var ctr int32
	maxAt := make(map[int]int32)
	var dfs func(n *sklNode)
	dfs = func(n *sklNode) {
		n.begin = ctr
		ctr++
		if n.depth > 0 && n.index > maxAt[n.depth-1] {
			maxAt[n.depth-1] = n.index
		}
		if n.kind == label.N {
			gg := sp.Graph(n.gid).G
			n.leafB = make([]int32, gg.NumVertices())
			n.leafE = make([]int32, gg.NumVertices())
			for v := 0; v < gg.NumVertices(); v++ {
				if sp.Kind(gg.Name(graph.VertexID(v))).Composite() {
					n.leafB[v], n.leafE[v] = -1, -1
					continue
				}
				n.leafB[v] = ctr
				ctr++
				n.leafE[v] = ctr
				ctr++
			}
		}
		for _, c := range n.children {
			dfs(c)
		}
		n.end = ctr
		ctr++
	}
	dfs(root)
	s.intervalBits = bitsFor(int(ctr))
	maxDepth := 0
	for d := range maxAt {
		if d+1 > maxDepth {
			maxDepth = d + 1
		}
	}
	s.widths = make([]int, maxDepth)
	for d := 0; d < maxDepth; d++ {
		s.widths[d] = bitsFor(int(maxAt[d]) + 1)
	}

	// Issue per-vertex labels (only live run vertices have contexts in
	// instance nodes with materialized regions).
	for v, m := range ctx {
		if r.Graph.IsTombstone(v) {
			continue
		}
		x := m.n
		types := make([]label.NodeType, 0, x.depth+1)
		for n := x; n != nil; n = n.parent {
			types = append(types, n.kind)
		}
		// Reverse to root-first order.
		for i, j := 0, len(types)-1; i < j; i, j = i+1, j-1 {
			types[i], types[j] = types[j], types[i]
		}
		global := x.region.GlobalOf[m.sv]
		if global == graph.None {
			return nil, fmt.Errorf("skl: vertex %d maps to a composite global slot", v)
		}
		s.labels[v] = &sklLabel{
			begin: x.leafB[m.sv], end: x.leafE[m.sv],
			path: x.path, types: types,
			global: global,
		}
	}
	return s, nil
}

// mustLabel returns the SKL label of a run vertex, panicking when v has
// none.
func (s *sklScheme) mustLabel(v graph.VertexID) *sklLabel {
	l, ok := s.labels[v]
	if !ok {
		panic(fmt.Sprintf("skl: vertex %d has no label", v))
	}
	return l
}

// pi decides reachability from two labels plus the global skeleton.
// The context paths give the least common ancestor: same or nested
// contexts defer to the global specification; contexts diverging at a
// loop node compare DFS order (earlier copies precede later ones in
// the interval layout); fork copies never reach each other; contexts
// diverging at an instance are different slots, decided by the global
// skeleton.
func (s *sklScheme) pi(a, b *sklLabel) bool {
	k := 0
	for k < len(a.path) && k < len(b.path) && a.path[k] == b.path[k] {
		k++
	}
	if k == len(a.path) || k == len(b.path) {
		// Same context, or one context is an ancestor of the other.
		return s.global.Reaches(a.global, b.global)
	}
	switch a.types[k] {
	case label.L:
		return a.begin < b.begin
	case label.F:
		return false
	default:
		return s.global.Reaches(a.global, b.global)
	}
}

// bitLen measures a label: two interval indexes, the packed path, the
// 2-bit-per-level type mask, and the skeleton pointer — the
// 3·log n_t + O(log n_G) accounting of Section 7.4.
func (s *sklScheme) bitLen(l *sklLabel) int {
	bits := 2*s.intervalBits + s.ptrBits + 2*len(l.types)
	for d := range l.path {
		bits += s.widths[d]
	}
	return bits
}

func bitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}
