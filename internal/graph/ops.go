package graph

import (
	"fmt"
	"slices"
)

// This file implements vertex replacement of Section 2.1 (Definition
// 4), fused with the series and parallel compositions (Definitions 1-2)
// that formalize loop and fork executions: ReplaceCopies replaces a
// vertex with k composed copies without building the composition. The
// definitions themselves are the tests' reference (compose_test.go).

// ReplaceCopies substitutes vertex u of g with k copies of the
// two-terminal graph h, composed in series when series is set and in
// parallel otherwise: g[u/S(h,…,h)] or g[u/P(h,…,h)], the pumped
// productions of loops and forks. It splices the copies straight into
// g without building the composition: copy c's vertex v gets id
// base + c·|h| + v, where base is the returned id, and every adjacency
// list ends in the order the tests' reference Replace(u, Series(h,…,h))
// or Replace(u, Parallel(h,…,h)) leaves it. With k = 1, h need not be
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
