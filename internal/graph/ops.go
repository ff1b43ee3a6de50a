package graph

import (
	"fmt"
	"slices"
)

// This file implements the four graph operations of Section 2.1
// (Definitions 1-4). Series and parallel composition formalize loop
// and fork executions; vertex insertion and vertex replacement
// formalize execution-based and derivation-based dynamic runs.
//
// Compositions build a fresh graph that holds the operands side by
// side: vertex v of operand k lands at v plus the sizes of the operands
// before it. ReplaceCopies is the derivation's fast path: it replaces a
// vertex with k composed copies without building the composition, and
// Series and Parallel stay as the definitions' reference.

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

// ReplaceCopies substitutes vertex u of g with k copies of the
// two-terminal graph h, composed in series when series is set and in
// parallel otherwise: g[u/S(h,…,h)] or g[u/P(h,…,h)], the pumped
// productions of loops and forks. It splices the copies straight into
// g without building the composition: copy c's vertex v gets id
// base + c·|h| + v, where base is the returned id, and every adjacency
// list ends in the order Replace(u, Series(h,…,h)) or
// Replace(u, Parallel(h,…,h)) leaves it. With k = 1, h need not be
// two-terminal and the result is g[u/h].
//
// The new vertices' adjacency lists are carved from one backing array,
// each with capacity equal to its length, so a later append to one
// reallocates it instead of overwriting its neighbour's.
func (g *Graph) ReplaceCopies(u VertexID, h *Graph, k int, series bool) (VertexID, error) {
	if !g.Valid(u) {
		return None, fmt.Errorf("graph: replace target %d out of range", u)
	}
	if g.IsTombstone(u) {
		return None, fmt.Errorf("graph: replace target %d already replaced", u)
	}
	n := len(h.names)
	if n == 0 {
		return None, fmt.Errorf("graph: replacement graph is empty")
	}
	if k < 1 {
		return None, fmt.Errorf("graph: %d copies", k)
	}
	// h's in-degree-0 and out-degree-0 vertices: the terminals a series
	// link joins, and the vertices wired to u's neighbours.
	src, snk, nsrc, nsnk := None, None, 0, 0
	for v := range h.names {
		if len(h.in[v]) == 0 {
			src, nsrc = VertexID(v), nsrc+1
		}
		if len(h.out[v]) == 0 {
			snk, nsnk = VertexID(v), nsnk+1
		}
	}
	if k > 1 && (nsrc != 1 || nsnk != 1) {
		return None, fmt.Errorf("graph: %d copies of a graph that is not two-terminal", k)
	}
	preds, succs := g.in[u], g.out[u]

	// Remove u and its incident edges.
	for _, p := range preds {
		g.out[p] = removeID(g.out[p], u)
	}
	for _, s := range succs {
		g.in[s] = removeID(g.in[s], u)
	}
	g.in[u], g.out[u] = nil, nil
	if len(g.dead) <= int(u) {
		g.dead = append(g.dead, make([]bool, int(u)+1-len(g.dead))...)
	}
	g.dead[u] = true
	g.ndead++

	// Which copies' terminals are wired to u's neighbours: every copy's
	// in parallel, the first copy's source and the last copy's sink in
	// series, which links each other sink to the next copy's source.
	links, wiredSrc, wiredSnk := 0, k*nsrc, k*nsnk
	if series && k > 1 {
		links, wiredSrc, wiredSnk = k-1, 1, 1
	}
	isSrc := func(c int, v VertexID) bool { return len(h.in[v]) == 0 && (!series || c == 0) }
	isSnk := func(c int, v VertexID) bool { return len(h.out[v]) == 0 && (!series || c == k-1) }
	link := func(c int, v VertexID) bool { return series && v == snk && c < k-1 }
	linked := func(c int, v VertexID) bool { return series && v == src && c > 0 }

	// Carve every new adjacency list first: an in-list fills from
	// vertices on either side of it.
	base := VertexID(len(g.names))
	backing := make([]VertexID, 2*(k*h.edges+links)+wiredSrc*len(preds)+wiredSnk*len(succs))
	take := func(m int) []VertexID {
		s := backing[:m:m]
		backing = backing[m:]
		return s
	}
	for c := 0; c < k; c++ {
		g.names = append(g.names, h.names...)
		for v := range h.names {
			vid := VertexID(v)
			nout, nin := len(h.out[v]), len(h.in[v])
			if link(c, vid) {
				nout++
			}
			if linked(c, vid) {
				nin++
			}
			if isSnk(c, vid) {
				nout += len(succs)
			}
			if isSrc(c, vid) {
				nin += len(preds)
			}
			g.out = append(g.out, take(nout))
			g.in = append(g.in, take(nin)[:0])
		}
	}
	// Copy the edges of each copy and its series link, in the order
	// Replace adds the edges of the composition: vertex by vertex, each
	// out-list in order, so in-lists fill in edge order.
	for c := 0; c < k; c++ {
		cb := base + VertexID(c*n)
		for v, ws := range h.out {
			nv := cb + VertexID(v)
			for i, w := range ws {
				g.out[nv][i] = cb + w
				g.in[cb+w] = append(g.in[cb+w], nv)
			}
			if link(c, VertexID(v)) {
				next := cb + VertexID(n) + src
				g.out[nv][len(ws)] = next
				g.in[next] = append(g.in[next], nv)
			}
		}
	}
	// Wire u's predecessors to the sources and the sinks to u's
	// successors, growing each neighbour's list once.
	for _, p := range preds {
		g.out[p] = slices.Grow(g.out[p], wiredSrc)
	}
	for _, s := range succs {
		g.in[s] = slices.Grow(g.in[s], wiredSnk)
	}
	for c := 0; c < k; c++ {
		cb := base + VertexID(c*n)
		for v := range h.names {
			nv := cb + VertexID(v)
			if isSrc(c, VertexID(v)) {
				for _, p := range preds {
					g.out[p] = append(g.out[p], nv)
					g.in[nv] = append(g.in[nv], p)
				}
			}
			if isSnk(c, VertexID(v)) {
				out := g.out[nv]
				copy(out[len(out)-len(succs):], succs)
				for _, s := range succs {
					g.in[s] = append(g.in[s], nv)
				}
			}
		}
	}
	g.edges += k*h.edges + links + wiredSrc*len(preds) + wiredSnk*len(succs) - len(preds) - len(succs)
	return base, nil
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
