package graph

import "fmt"

// The operations of Section 2.1 as Definitions 1-4 state them: the
// reference ReplaceCopies, which the derivation splices copies in
// with, is held to.
//
// Compositions build a fresh graph that holds the operands side by
// side: vertex v of operand k lands at v plus the sizes of the operands
// before it.

// Series forms the series composition S(g1, ..., gn) of two-terminal
// graphs (Definition 1): the disjoint union plus an edge from the sink
// of each operand to the source of the next. It panics if any operand
// is not two-terminal, matching the definition's precondition.
func Series(gs ...*Graph) *Graph {
	return disjointUnion(gs, true)
}

// Parallel forms the parallel composition P(g1, ..., gn) (Definition
// 2): simply the disjoint union of the operands. The result is in
// general not two-terminal; the replacement operation wires all its
// sources and sinks into the host graph.
func Parallel(gs ...*Graph) *Graph {
	return disjointUnion(gs, false)
}

// disjointUnion copies the operands side by side into a graph sized
// once, their adjacency lists carved from one backing array. With
// series set it also links each operand's sink to the next operand's
// source. No edge is checked for a cycle: each copy is a DAG, and a
// series edge points from one operand to a later one.
func disjointUnion(gs []*Graph, series bool) *Graph {
	n, adj := 0, 0
	for k, g := range gs {
		if len(gs) > 1 && !g.IsTwoTerminal() {
			panic(fmt.Sprintf("graph: composition operand %d is not two-terminal", k))
		}
		n, adj = n+len(g.names), adj+2*g.edges
	}
	res := &Graph{names: make([]string, 0, n), out: make([][]VertexID, 0, n), in: make([][]VertexID, 0, n)}
	backing := make([]VertexID, adj)
	take := func(k int) []VertexID {
		s := backing[:k:k]
		backing = backing[k:]
		return s
	}
	bases := make([]VertexID, len(gs))
	for k, g := range gs {
		base := VertexID(len(res.names))
		bases[k] = base
		for v := range g.names {
			res.out = append(res.out, take(len(g.out[v])))
			res.in = append(res.in, take(len(g.in[v]))[:0])
		}
		if g.ndead > 0 {
			res.dead = append(res.dead, make([]bool, int(base)-len(res.dead))...)
			res.dead = append(res.dead, g.dead...)
		}
		res.names = append(res.names, g.names...)
		// In-lists fill in edge order, as AddEdge would have left them.
		for v, ws := range g.out {
			for i, w := range ws {
				res.out[base+VertexID(v)][i] = base + w
				res.in[base+w] = append(res.in[base+w], base+VertexID(v))
			}
		}
		res.edges += g.edges
		res.ndead += g.ndead
	}
	for i := 0; series && i+1 < len(gs); i++ {
		t, s := bases[i]+gs[i].Sink(), bases[i+1]+gs[i+1].Source()
		res.out[t] = append(res.out[t], s)
		res.in[s] = append(res.in[s], t)
		res.edges++
	}
	return res
}

// Insert adds a new vertex labeled name to g with edges from every
// vertex of preds to it (Definition 3: g + (v, C)). It returns the new
// vertex's id. Duplicate predecessors are rejected.
func (g *Graph) Insert(name string, preds []VertexID) (VertexID, error) {
	seen := make(map[VertexID]bool, len(preds))
	for _, p := range preds {
		if !g.Valid(p) {
			return None, fmt.Errorf("graph: insert predecessor %d out of range", p)
		}
		if seen[p] {
			return None, fmt.Errorf("graph: insert duplicate predecessor %d", p)
		}
		seen[p] = true
	}
	v := g.AddVertex(name)
	for _, p := range preds {
		// Cannot create a cycle: v has no outgoing edges yet.
		g.out[p] = append(g.out[p], v)
		g.in[v] = append(g.in[v], p)
		g.edges++
	}
	return v, nil
}

// Replace substitutes vertex u of g with the graph h (Definition 4:
// g[u/h]): u and its incident edges are removed; h is added; every
// former predecessor of u gains an edge to every source of h, and
// every sink of h gains an edge to every former successor of u. h's
// vertex v gets id base + v, where base is the returned id.
//
// The host graph keeps its existing vertex ids stable: u's id becomes
// a tombstone that is never reused, which lets the run builder track
// vertices across a whole derivation without renumbering. A tombstone
// keeps its name, loses its edges, and is left out of LiveCount,
// LiveVertices, Sources, Sinks and TopoOrder. h is only read.
func (g *Graph) Replace(u VertexID, h *Graph) (VertexID, error) {
	return g.ReplaceCopies(u, h, 1, false)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names: append([]string(nil), g.names...),
		dead:  append([]bool(nil), g.dead...),
		out:   make([][]VertexID, len(g.out)),
		in:    make([][]VertexID, len(g.in)),
		edges: g.edges,
		ndead: g.ndead,
	}
	for i := range g.out {
		c.out[i] = append([]VertexID(nil), g.out[i]...)
		c.in[i] = append([]VertexID(nil), g.in[i]...)
	}
	return c
}
