package core_test

import (
	"math/bits"

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

// pointerBits is Algorithm 1's skeleton pointer: ⌈log₂ n_G⌉ bits, a
// global spec-vertex number (at least 1 bit).
func pointerBits(g *spec.Grammar) int {
	return max(1, bits.Len(uint(g.TotalVertices()-1)))
}

// algorithm1Bits is the label length under Algorithm 1's accounting as
// the paper states it: per entry 2 type bits, the index's value bits, a
// skeleton pointer on every N entry and 2 flag bits below an R node.
// Codec.BitLen never exceeds it.
func algorithm1Bits(g *spec.Grammar, l label.Label) int {
	n := 0
	for i, e := range l.Entries {
		n += 2 + max(1, bits.Len32(uint32(e.Index)))
		if e.Type == label.N {
			n += pointerBits(g)
		}
		if i > 0 && l.Entries[i-1].Type == label.R {
			n += 2
		}
	}
	return n
}

// deepLabel builds an n-entry label (n ≥ 6) of RunningExample, the shape
// a nonlinear recursion produces without R nodes: the first fork copy's
// A slot, then instances of h3 = s3 → B → C → t3 and h6 = s6 → A → t6
// expanding each other's C and A slots in turn, down to an s3 or s6.
func deepLabel(n int) label.Label {
	entries := []label.Entry{
		{Index: 0, Type: label.N, Skl: spec.VertexRef{Graph: 0, V: 1}},
		{Index: 0, Type: label.L, Skl: spec.NoRef},
		{Index: 1, Type: label.N, Skl: spec.VertexRef{Graph: 1, V: 1}},
		{Index: 0, Type: label.F, Skl: spec.NoRef},
		{Index: 1, Type: label.N, Skl: spec.VertexRef{Graph: 2, V: 1}},
	}
	for i := 5; i < n; i++ {
		if i%2 == 1 {
			entries = append(entries, label.Entry{Index: 0, Type: label.N, Skl: spec.VertexRef{Graph: 3, V: 2}})
		} else {
			entries = append(entries, label.Entry{Index: 1, Type: label.N, Skl: spec.VertexRef{Graph: 6, V: 1}})
		}
	}
	entries[n-1].Skl.V = 0
	return label.Label{Entries: entries}
}

// siblingOf returns a deepLabel whose last entry is an h6 instance's
// s6 with the s5 of the B slot of the same h3 instance: a label that
// diverges from l at its last entry.
func siblingOf(l label.Label) label.Label {
	entries := append([]label.Entry(nil), l.Entries...)
	entries[len(entries)-2].Skl.V = 1
	entries[len(entries)-1] = label.Entry{Index: 0, Type: label.N, Skl: spec.VertexRef{Graph: 5, V: 0}}
	return label.Label{Entries: entries}
}

// outOfRange returns RunningExample encodings that each hold one value
// the grammar does not: an implementation choice past its set, an
// interior entry naming a graph without composite vertices, a leaf rank
// past its set's atomic vertices. They are packed field by field —
// index code, type bit where the slot leaves it open, choice or leaf —
// since Encode refuses such labels.
func outOfRange() map[string][]byte {
	// The path to the A slot of the first fork copy, then the R node
	// expanding it: the root, the L and F entries and the R entry store
	// no slot rank (each is the one composite vertex of its graph), the
	// copies their position 1 in order-4 and order-3 Exp-Golomb and no
	// choice, the R entry its type bit and the member its position 1 in
	// order 2. Its chain set is h3, h4, h6 — a 2-bit choice, and a 3-bit
	// rank among their six atomic vertices, which is what a last member
	// leaves; eight more bits make it interior.
	toChain := [][2]uint64{{17, 5}, {9, 4}, {1, 1}, {5, 3}}
	return map[string][]byte{
		"choice past its set":          packBits(append(toChain, [2]uint64{3, 2}, [2]uint64{0, 8})...),
		"interior graph without slots": packBits(append(toChain, [2]uint64{1, 2}, [2]uint64{0, 8})...), // h4 = s4 → t4
		"leaf rank past its set":       packBits(append(toChain, [2]uint64{7, 3})...),
	}
}

// packBits writes (value, width) fields MSB first, then the stop bit.
func packBits(fields ...[2]uint64) []byte {
	var out []byte
	n := 0
	for _, f := range append(fields, [2]uint64{1, 1}) {
		for i := int(f[1]) - 1; i >= 0; i-- {
			if n%8 == 0 {
				out = append(out, 0)
			}
			out[len(out)-1] |= byte(f[0]>>uint(i)&1) << (7 - n%8)
			n++
		}
	}
	return out
}
