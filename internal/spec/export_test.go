package spec

import (
	"fmt"

	"wfreach/internal/graph"
)

// IsLinearRecursive reports whether the grammar admits the compact
// dynamic scheme (Definition 10; non-recursive grammars qualify
// trivially).
func (g *Grammar) IsLinearRecursive() bool {
	return g.class == ClassNonRecursive || g.class == ClassLinear
}

// Induces reports A ↦* B (Section 4.1).
func (g *Grammar) Induces(a, b string) bool { return g.induces[a][b] }

// RecursiveVertices returns the recursive vertices of the production
// headed by the owner of graph id (ascending vertex order; empty for
// the start graph).
func (g *Grammar) RecursiveVertices(id GraphID) []graph.VertexID { return g.recVerts[id] }

// Reaches answers u ;*_h v for two vertices of the same specification
// graph; it panics if the refs name different graphs.
func (g *Grammar) Reaches(a, b VertexRef) bool {
	if a.Graph != b.Graph {
		panic("spec: Reaches across graphs")
	}
	return g.spec.graphs[a.Graph].G.Reaches(a.V, b.V)
}

// MaxGraphSize returns max |V(h)| over G(S).
func (g *Grammar) MaxGraphSize() int {
	n := 0
	for _, ng := range g.spec.graphs {
		n = max(n, ng.G.NumVertices())
	}
	return n
}

// TotalVertices returns Σ |V(h)| over all graphs of G(S).
func (s *Spec) TotalVertices() int {
	n := 0
	for _, g := range s.graphs {
		n += g.G.NumVertices()
	}
	return n
}

// ResolveName returns the unique vertex of graph id with the given
// name, or an error.
func (s *Spec) ResolveName(id GraphID, name string) (graph.VertexID, error) {
	g := s.graphs[id].G
	found := graph.None
	for v := 0; v < g.NumVertices(); v++ {
		if g.Name(graph.VertexID(v)) == name {
			if found != graph.None {
				return graph.None, fmt.Errorf("spec: name %q ambiguous in graph %s", name, s.graphs[id].Label)
			}
			found = graph.VertexID(v)
		}
	}
	if found == graph.None {
		return graph.None, fmt.Errorf("spec: name %q not in graph %s", name, s.graphs[id].Label)
	}
	return found, nil
}
