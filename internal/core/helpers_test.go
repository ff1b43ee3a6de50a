package core_test

import (
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/spec"
)

// linearRecursive reports whether g admits the compact dynamic scheme
// (Definition 10; non-recursive grammars qualify trivially).
func linearRecursive(g *spec.Grammar) bool {
	return g.Class() == spec.ClassNonRecursive || g.Class() == spec.ClassLinear
}

func labelCodec(g *spec.Grammar) *label.Codec { return label.NewCodec(g) }

func labelOf(entries ...label.Entry) label.Label {
	return label.Label{Entries: append([]label.Entry(nil), entries...)}
}

// composites returns graph gid's composite vertices in vertex order:
// the expansion of the k-th one is its instance's child of index k.
func composites(g *spec.Grammar, gid spec.GraphID) []graph.VertexID {
	gg := g.Spec().Graph(gid).G
	var out []graph.VertexID
	for v := range gg.NumVertices() {
		if g.Spec().Kind(gg.Name(graph.VertexID(v))).Composite() {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}
