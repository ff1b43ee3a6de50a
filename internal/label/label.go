// Package label defines the reachability labels of the dynamic scheme:
// a label is the list of entries (index, type, skl, rec1, rec2) built
// by Algorithm 1, one entry per level of the vertex's path in the
// explicit parse tree. Its Codec measures labels and stores them:
// BitLen is the paper's accounting, the label length of every
// measurement (Figures 14 and 17-20); Encode is the canonical
// self-delimiting binary form the store, the snapshot and the Merkle
// leaves hold, prefix-coding each index and the entry count so that the
// framing and padding cost about two bytes over BitLen; Cursor parses
// that form in place.
package label

import (
	"fmt"
	"strings"

	"wfreach/internal/spec"
)

// NodeType is the type of an explicit-parse-tree node (Algorithm 1's
// "type" field): L (loop), F (fork), R (recursive) or N (non-special).
type NodeType uint8

const (
	// N marks a non-special node: an instance of a specification graph.
	N NodeType = iota
	// L marks a loop node whose children are series copies.
	L
	// F marks a fork node whose children are parallel copies.
	F
	// R marks a recursion node whose children form a linear recursion
	// chain.
	R
)

func (t NodeType) String() string {
	switch t {
	case N:
		return "N"
	case L:
		return "L"
	case F:
		return "F"
	case R:
		return "R"
	}
	return fmt.Sprintf("NodeType(%d)", uint8(t))
}

// Entry is one level of a reachability label (Algorithm 1): the child
// index of the tree node at this level, the node's type, and — for
// non-special nodes — the skeleton-label pointer of the vertex's
// origin at this level plus, for members of a recursion chain, the two
// recursion flags (origin reaches the recursive vertex / is reached by
// it).
type Entry struct {
	Index int32
	Type  NodeType
	// Skl points to the skeleton label of the origin (spec.NoRef for
	// special nodes, whose entries carry no skeleton information).
	Skl spec.VertexRef
	// HasRec reports whether the recursion flags are meaningful: the
	// entry's node is a recursion-chain member whose graph has a
	// designated recursive vertex.
	HasRec     bool
	Rec1, Rec2 bool
}

func (e Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%d,%s", e.Index, e.Type)
	if !e.Skl.IsZero() {
		fmt.Fprintf(&b, ",g%d:%d", e.Skl.Graph, e.Skl.V)
	}
	if e.HasRec {
		fmt.Fprintf(&b, ",%v,%v", e.Rec1, e.Rec2)
	}
	b.WriteByte(')')
	return b.String()
}

// Label is a reachability label: the entry list φ_g(v) of Algorithm 3.
// Labels are immutable once assigned; the labelers build each label by
// appending one entry to a shared prefix, so entry slices must never
// be mutated in place.
type Label struct {
	Entries []Entry
}

// Len returns the number of entries.
func (l Label) Len() int { return len(l.Entries) }

// IsZero reports whether the label is unassigned.
func (l Label) IsZero() bool { return l.Entries == nil }

// Equal reports structural equality.
func (l Label) Equal(o Label) bool {
	if len(l.Entries) != len(o.Entries) {
		return false
	}
	for i := range l.Entries {
		if l.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

func (l Label) String() string {
	parts := make([]string, len(l.Entries))
	for i, e := range l.Entries {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
