// Package skeleton implements the static schemes used to label
// workflow specifications (Section 5.1): the skeleton labels that the
// dynamic scheme extends to runs. Two schemes from the paper's
// evaluation (Section 7.1) are provided:
//
//   - TCL precomputes the transitive closure using the triangular
//     scheme of Section 3.2: vertex v_i (in topological order) stores
//     i-1 bits, bit j meaning "v_j reaches v_i". Queries are O(1); the
//     total label store for a graph with n vertices is n(n-1)/2 bits.
//   - BFS stores no labels at all and answers each query with a
//     breadth-first search over the specification graph.
//
// Both exist in two flavors: a GraphScheme over a single graph (used
// by SKL over the global inlined specification) and a Scheme over all
// graphs of a specification (used by DRL).
package skeleton

import (
	"fmt"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
)

// Kind selects a skeleton scheme.
type Kind uint8

const (
	// TCL is the precomputed transitive-closure scheme of Section 3.2.
	TCL Kind = iota
	// BFS answers queries by graph search, storing nothing.
	BFS
)

func (k Kind) String() string {
	switch k {
	case TCL:
		return "TCL"
	case BFS:
		return "BFS"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// GraphScheme answers reachability on one graph.
type GraphScheme interface {
	// Reaches reports v ;* w (reflexive).
	Reaches(v, w graph.VertexID) bool
	// Bits is the total label storage in bits (0 for BFS).
	Bits() int
}

// NewGraphScheme builds a GraphScheme of the given kind over g.
func NewGraphScheme(k Kind, g *graph.Graph) GraphScheme {
	switch k {
	case TCL:
		return newGraphTCL(g)
	case BFS:
		return graphBFS{g}
	}
	panic(fmt.Sprintf("skeleton: unknown kind %d", k))
}

// graphTCL holds triangular closure rows in topological order.
type graphTCL struct {
	pos   []int      // vertex id -> topological position
	rows  [][]uint64 // position i -> bitset over positions < i
	words int
	n     int
}

func newGraphTCL(g *graph.Graph) *graphTCL {
	order := g.TopoOrder()
	n := len(order)
	t := &graphTCL{
		pos:   make([]int, g.NumVertices()),
		rows:  make([][]uint64, n),
		words: (n + 63) / 64,
		n:     n,
	}
	for i := range t.pos {
		t.pos[i] = -1
	}
	for i, v := range order {
		t.pos[v] = i
	}
	for i, v := range order {
		row := make([]uint64, t.words)
		for _, p := range g.In(v) {
			// Ancestors of v = union of ancestors of predecessors plus
			// the predecessors themselves.
			pp := t.pos[p]
			for w := range row {
				row[w] |= t.rows[pp][w]
			}
			row[pp/64] |= 1 << (uint(pp) % 64)
		}
		t.rows[i] = row
	}
	return t
}

func (t *graphTCL) Reaches(v, w graph.VertexID) bool {
	if int(v) >= len(t.pos) || int(w) >= len(t.pos) || v < 0 || w < 0 {
		return false
	}
	pv, pw := t.pos[v], t.pos[w]
	if pv < 0 || pw < 0 {
		return false
	}
	if pv == pw {
		return true
	}
	if pv > pw {
		return false
	}
	return t.rows[pw][pv/64]&(1<<(uint(pv)%64)) != 0
}

// Bits reports the Section 3.2 accounting: vertex v_i stores i-1 bits,
// so a graph with n vertices stores n(n-1)/2 bits in total (the
// vertex's index is implicit in its label length).
func (t *graphTCL) Bits() int { return t.n * (t.n - 1) / 2 }

type graphBFS struct{ g *graph.Graph }

func (b graphBFS) Reaches(v, w graph.VertexID) bool { return b.g.Reaches(v, w) }
func (b graphBFS) Bits() int                        { return 0 }

// Scheme labels every graph of a specification and answers the π_G
// queries of Algorithm 1/4: reachability between two vertices of the
// same specification graph.
type Scheme struct {
	graphs []GraphScheme
}

// New builds skeleton labels for all graphs of the grammar's
// specification.
func New(k Kind, g *spec.Grammar) *Scheme {
	s := &Scheme{}
	for _, ng := range g.Spec().Graphs() {
		s.graphs = append(s.graphs, NewGraphScheme(k, ng.G))
	}
	return s
}

// Pi reports a ;* b for two vertices of the same specification graph;
// it panics if the refs name different graphs (Algorithm 4 only ever
// compares skeleton labels within one graph).
func (s *Scheme) Pi(a, b spec.VertexRef) bool {
	if a.Graph != b.Graph {
		panic("skeleton: π across specification graphs")
	}
	return s.graphs[a.Graph].Reaches(a.V, b.V)
}

// Bits returns the total skeleton storage in bits (Table 2's "Total
// Space").
func (s *Scheme) Bits() int {
	total := 0
	for _, g := range s.graphs {
		total += g.Bits()
	}
	return total
}
