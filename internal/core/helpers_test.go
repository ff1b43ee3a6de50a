package core_test

import (
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
