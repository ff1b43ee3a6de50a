package graph

import "fmt"

// This file implements the four graph operations of Section 2.1
// (Definitions 1-4). Series and parallel composition formalize loop
// and fork executions; vertex insertion and vertex replacement
// formalize execution-based and derivation-based dynamic runs.
//
// Compositions build a fresh graph; the returned Mapping records where
// each input vertex landed so callers (the run builder, the labelers)
// can track identities across operations.

// Mapping records, for each operand graph of a composition, the new id
// of each of its vertices: Mapping[k][v] is the id in the result of
// vertex v of operand k.
type Mapping [][]VertexID

// Series forms the series composition S(g1, ..., gn) of two-terminal
// graphs (Definition 1): the disjoint union plus an edge from the sink
// of each operand to the source of the next. It panics if any operand
// is not two-terminal, matching the definition's precondition.
func Series(gs ...*Graph) (*Graph, Mapping) {
	return disjointUnion(gs, true)
}

// Parallel forms the parallel composition P(g1, ..., gn) (Definition
// 2): simply the disjoint union of the operands. The result is in
// general not two-terminal; the replacement operation wires all its
// sources and sinks into the host graph.
func Parallel(gs ...*Graph) (*Graph, Mapping) {
	return disjointUnion(gs, false)
}

// disjointUnion copies the operands side by side into a graph sized
// once, their adjacency lists carved from one backing array. With
// series set it also links each operand's sink to the next operand's
// source. No edge is checked for a cycle: each copy is a DAG, and a
// series edge points from one operand to a later one.
func disjointUnion(gs []*Graph, series bool) (*Graph, Mapping) {
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
	m := make(Mapping, len(gs))
	for k, g := range gs {
		base := VertexID(len(res.names))
		m[k] = make([]VertexID, len(g.names))
		for v := range g.names {
			m[k][v] = base + VertexID(v)
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
		t, s := m[i][gs[i].Sink()], m[i+1][gs[i+1].Source()]
		res.out[t] = append(res.out[t], s)
		res.in[s] = append(res.in[s], t)
		res.edges++
	}
	return res, m
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

// ReplaceResult reports the outcome of a Replace: the ids in the host
// graph of each vertex of the replacement graph.
type ReplaceResult struct {
	// VertexOf[v] is the host id of vertex v of the replacement graph.
	VertexOf []VertexID
}

// Replace substitutes vertex u of g with the graph h (Definition 4:
// g[u/h]): u and its incident edges are removed; h is added; every
// former predecessor of u gains an edge to every source of h, and
// every sink of h gains an edge to every former successor of u.
//
// The host graph keeps its existing vertex ids stable: u's id becomes
// a tombstone that is never reused, which lets the run builder track
// vertices across a whole derivation without renumbering. A tombstone
// keeps its name, loses its edges, and is left out of LiveCount,
// LiveVertices, Sources, Sinks and TopoOrder. h is only read.
func (g *Graph) Replace(u VertexID, h *Graph) (ReplaceResult, error) {
	if !g.Valid(u) {
		return ReplaceResult{}, fmt.Errorf("graph: replace target %d out of range", u)
	}
	if g.IsTombstone(u) {
		return ReplaceResult{}, fmt.Errorf("graph: replace target %d already replaced", u)
	}
	if h.NumVertices() == 0 {
		return ReplaceResult{}, fmt.Errorf("graph: replacement graph is empty")
	}
	preds := append([]VertexID(nil), g.in[u]...)
	succs := append([]VertexID(nil), g.out[u]...)

	// Remove u's incident edges.
	for _, p := range preds {
		g.out[p] = removeID(g.out[p], u)
	}
	for _, s := range succs {
		g.in[s] = removeID(g.in[s], u)
	}
	g.edges -= len(preds) + len(succs)
	g.in[u] = nil
	g.out[u] = nil
	if len(g.dead) <= int(u) {
		g.dead = append(g.dead, make([]bool, int(u)+1-len(g.dead))...)
	}
	g.dead[u] = true
	g.ndead++

	// Add h.
	res := ReplaceResult{VertexOf: make([]VertexID, h.NumVertices())}
	for v := 0; v < h.NumVertices(); v++ {
		res.VertexOf[v] = g.AddVertex(h.Name(VertexID(v)))
	}
	for v := 0; v < h.NumVertices(); v++ {
		for _, w := range h.Out(VertexID(v)) {
			nv, nw := res.VertexOf[v], res.VertexOf[w]
			g.out[nv] = append(g.out[nv], nw)
			g.in[nw] = append(g.in[nw], nv)
			g.edges++
		}
	}

	// Wire sources and sinks.
	for v := 0; v < h.NumVertices(); v++ {
		hv := VertexID(v)
		nv := res.VertexOf[v]
		if h.InDegree(hv) == 0 {
			for _, p := range preds {
				g.out[p] = append(g.out[p], nv)
				g.in[nv] = append(g.in[nv], p)
				g.edges++
			}
		}
		if h.OutDegree(hv) == 0 {
			for _, s := range succs {
				g.out[nv] = append(g.out[nv], s)
				g.in[s] = append(g.in[s], nv)
				g.edges++
			}
		}
	}
	return res, nil
}

// IsTombstone reports whether v was consumed by a Replace.
func (g *Graph) IsTombstone(v VertexID) bool {
	return v >= 0 && int(v) < len(g.dead) && g.dead[v]
}

// LiveCount returns the number of non-tombstone vertices.
func (g *Graph) LiveCount() int { return len(g.names) - g.ndead }

// LiveVertices returns the non-tombstone vertices in id order.
func (g *Graph) LiveVertices() []VertexID {
	var vs []VertexID
	for v := range g.names {
		if !g.IsTombstone(VertexID(v)) {
			vs = append(vs, VertexID(v))
		}
	}
	return vs
}

func removeID(s []VertexID, v VertexID) []VertexID {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
