// Package graph implements the directed acyclic graphs underlying
// workflow specifications and runs, together with the four graph
// operations of the paper's Section 2.1: series composition, parallel
// composition, vertex insertion and vertex replacement (Definitions
// 1-4 of Bao, Davidson and Milo, "Labeling Recursive Workflow
// Executions On-the-Fly", SIGMOD 2011).
//
// Throughout the package, "graph" means a directed acyclic graph with
// no self-loops and no multi-edges. Every vertex carries a name (the
// module name in workflow terms); reachability labels are handled by
// higher layers.
//
// AddEdge checks every edge it is given: it refuses self-loops,
// duplicates and edges that close a cycle. The compositions and
// Replace trust their operands' acyclicity and search nothing: a
// composition copies DAGs and links one only to a later one, and
// Replace routes u's edges through h. The results are acyclic by
// construction, so a derivation step costs what it adds.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// VertexID identifies a vertex within one Graph. IDs are dense
// non-negative integers assigned by the graph in insertion order.
type VertexID int32

// None is the sentinel VertexID for "no vertex".
const None VertexID = -1

// Graph is a mutable directed acyclic graph. The zero value is not
// usable; call New.
type Graph struct {
	names []string     // vertex id -> name
	out   [][]VertexID // adjacency, insertion-ordered
	in    [][]VertexID // reverse adjacency, insertion-ordered
	edges int
	// dead[v]: v was consumed by a Replace. Only Replace grows it, so it
	// may be shorter than names; ndead counts its true entries.
	dead  []bool
	ndead int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.names) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex adds a vertex with the given name and returns its id.
func (g *Graph) AddVertex(name string) VertexID {
	id := VertexID(len(g.names))
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// Grow reserves room for n more vertices, so that adding up to n
// vertices, one at a time or by replacements, does not reallocate the
// per-vertex arrays.
func (g *Graph) Grow(n int) {
	g.names = slices.Grow(g.names, n)
	g.out = slices.Grow(g.out, n)
	g.in = slices.Grow(g.in, n)
	g.dead = slices.Grow(g.dead, len(g.names)+n-len(g.dead))
}

// Name returns the name of v, the module name also for a tombstone. It
// panics if v is out of range.
func (g *Graph) Name(v VertexID) string { return g.names[v] }

// Valid reports whether v is a vertex of g.
func (g *Graph) Valid(v VertexID) bool { return v >= 0 && int(v) < len(g.names) }

// ErrCycle is returned by AddEdge when the edge would create a cycle.
var ErrCycle = errors.New("graph: edge would create a cycle")

// ErrDuplicateEdge is returned by AddEdge for an existing edge.
var ErrDuplicateEdge = errors.New("graph: duplicate edge")

// ErrSelfLoop is returned by AddEdge for a self-loop.
var ErrSelfLoop = errors.New("graph: self-loop")

// AddEdge inserts the edge (from, to). It rejects self-loops,
// duplicate edges, and edges that would create a cycle.
func (g *Graph) AddEdge(from, to VertexID) error {
	if !g.Valid(from) || !g.Valid(to) {
		return fmt.Errorf("graph: vertex out of range (%d, %d)", from, to)
	}
	if from == to {
		return ErrSelfLoop
	}
	for _, w := range g.out[from] {
		if w == to {
			return ErrDuplicateEdge
		}
	}
	if g.Reaches(to, from) {
		return ErrCycle
	}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge panicking on error; for use in builders whose
// input is known to be acyclic.
func (g *Graph) MustAddEdge(from, to VertexID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge (from, to) exists.
func (g *Graph) HasEdge(from, to VertexID) bool {
	if !g.Valid(from) || !g.Valid(to) {
		return false
	}
	for _, w := range g.out[from] {
		if w == to {
			return true
		}
	}
	return false
}

// Out returns the successors of v. The slice is shared; callers must
// not modify it.
func (g *Graph) Out(v VertexID) []VertexID { return g.out[v] }

// In returns the predecessors of v. The slice is shared; callers must
// not modify it.
func (g *Graph) In(v VertexID) []VertexID { return g.in[v] }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.out[v]) }

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.in[v]) }

// Sources returns the non-tombstone vertices with no incoming edges,
// in id order.
func (g *Graph) Sources() []VertexID {
	var s []VertexID
	for v := range g.names {
		if len(g.in[v]) == 0 && !g.IsTombstone(VertexID(v)) {
			s = append(s, VertexID(v))
		}
	}
	return s
}

// Sinks returns the non-tombstone vertices with no outgoing edges, in
// id order.
func (g *Graph) Sinks() []VertexID {
	var s []VertexID
	for v := range g.names {
		if len(g.out[v]) == 0 && !g.IsTombstone(VertexID(v)) {
			s = append(s, VertexID(v))
		}
	}
	return s
}

// Reaches reports whether there is a (possibly empty) path from v to
// w: the reflexive-transitive reachability v ;* w used throughout the
// paper. It runs a breadth-first search in O(V+E).
func (g *Graph) Reaches(v, w VertexID) bool {
	if !g.Valid(v) || !g.Valid(w) {
		return false
	}
	if v == w {
		return true
	}
	seen := make([]bool, len(g.names))
	queue := []VertexID{v}
	seen[v] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range g.out[cur] {
			if nxt == w {
				return true
			}
			if !seen[nxt] {
				seen[nxt] = true
				queue = append(queue, nxt)
			}
		}
	}
	return false
}

// TopoOrder returns the vertices in a deterministic topological order
// (Kahn's algorithm with smallest-id tie-breaking via a binary
// min-heap).
func (g *Graph) TopoOrder() []VertexID {
	n := len(g.names)
	indeg := make([]int, n)
	var frontier idHeap
	for v := 0; v < n; v++ {
		indeg[v] = len(g.in[v])
		if indeg[v] == 0 {
			frontier.push(VertexID(v))
		}
	}
	order := make([]VertexID, 0, n)
	for frontier.len() > 0 {
		v := frontier.pop()
		if !g.IsTombstone(v) {
			order = append(order, v)
		}
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier.push(w)
			}
		}
	}
	return order
}

// idHeap is a binary min-heap of vertex ids.
type idHeap struct{ s []VertexID }

func (h *idHeap) len() int { return len(h.s) }

func (h *idHeap) push(v VertexID) {
	h.s = append(h.s, v)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.s[p] <= h.s[i] {
			break
		}
		h.s[p], h.s[i] = h.s[i], h.s[p]
		i = p
	}
}

func (h *idHeap) pop() VertexID {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.s[l] < h.s[m] {
			m = l
		}
		if r < last && h.s[r] < h.s[m] {
			m = r
		}
		if m == i {
			break
		}
		h.s[i], h.s[m] = h.s[m], h.s[i]
		i = m
	}
	return top
}

// Closure returns the full reachability matrix as bitsets: row v has
// bit w set iff v ;* w (reflexive). Intended for small specification
// graphs and for ground truth in tests.
func (g *Graph) Closure() *Closure {
	n := len(g.names)
	c := &Closure{n: n, words: (n + 63) / 64}
	c.bits = make([]uint64, n*c.words)
	order := g.TopoOrder()
	// Process in reverse topological order so each vertex ORs in the
	// closed rows of its successors.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		row := c.row(int(v))
		row[int(v)/64] |= 1 << (uint(v) % 64)
		for _, w := range g.out[v] {
			wrow := c.row(int(w))
			for k := range row {
				row[k] |= wrow[k]
			}
		}
	}
	return c
}

// Closure is a dense reachability matrix over vertex bitsets.
type Closure struct {
	n     int
	words int
	bits  []uint64
}

func (c *Closure) row(v int) []uint64 {
	return c.bits[v*c.words : (v+1)*c.words]
}

// Reaches reports v ;* w (reflexive) from the precomputed matrix.
func (c *Closure) Reaches(v, w VertexID) bool {
	if int(v) >= c.n || int(w) >= c.n || v < 0 || w < 0 {
		return false
	}
	return c.row(int(v))[int(w)/64]&(1<<(uint(w)%64)) != 0
}

// IsTwoTerminal reports whether g has a single source and a single
// sink (Section 2.1's two-terminal graphs). The empty graph is not
// two-terminal.
func (g *Graph) IsTwoTerminal() bool {
	return len(g.Sources()) == 1 && len(g.Sinks()) == 1 && g.LiveCount() > 0
}

// Source returns the unique source of a two-terminal graph, or None.
func (g *Graph) Source() VertexID {
	s := g.Sources()
	if len(s) != 1 {
		return None
	}
	return s[0]
}

// Sink returns the unique sink of a two-terminal graph, or None.
func (g *Graph) Sink() VertexID {
	s := g.Sinks()
	if len(s) != 1 {
		return None
	}
	return s[0]
}

// SpansSourceToSink reports whether every vertex lies on some path
// from the unique source to the unique sink — the well-formedness
// condition for workflow graphs: the source starts every execution and
// the sink collects every result.
func (g *Graph) SpansSourceToSink() bool {
	if !g.IsTwoTerminal() {
		return false
	}
	src, snk := g.Source(), g.Sink()
	n := len(g.names)
	fromSrc := g.reachableSet(src, false)
	toSink := g.reachableSet(snk, true)
	for v := 0; v < n; v++ {
		if g.IsTombstone(VertexID(v)) {
			continue
		}
		if !fromSrc[v] || !toSink[v] {
			return false
		}
	}
	return true
}

// reachableSet returns the set of vertices reachable from v, following
// reverse edges when rev is true. v itself is included.
func (g *Graph) reachableSet(v VertexID, rev bool) []bool {
	seen := make([]bool, len(g.names))
	seen[v] = true
	queue := []VertexID{v}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		adj := g.out[cur]
		if rev {
			adj = g.in[cur]
		}
		for _, nxt := range adj {
			if !seen[nxt] {
				seen[nxt] = true
				queue = append(queue, nxt)
			}
		}
	}
	return seen
}

// String renders the graph compactly for debugging:
// "name0(id0)->[ids] ...".
func (g *Graph) String() string {
	var b strings.Builder
	for v := range g.names {
		if v > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s(%d)->%v", g.names[v], v, g.out[v])
	}
	return b.String()
}
