// Package parsetree implements the explicit parse tree of Section 4.2:
// the tree whose non-special nodes are instances of specification
// graphs created during a derivation and whose special L, F and R
// nodes group loop copies, fork copies and linear-recursion chains.
// For linear recursive grammars its depth is bounded by a constant
// depending only on the grammar (Lemma 4.1), which is what makes the
// dynamic labels logarithmic.
//
// The package provides the tree structure and its shape statistics
// (depth d_t, fanout θ_t, size n_t of Table 1); the labeling semantics
// live in internal/core.
package parsetree

import (
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/spec"
)

// Node is a node of the explicit parse tree. Non-special nodes
// (Kind == label.N) are annotated with an instance of a specification
// graph; special nodes (L, F, R) group their children.
type Node struct {
	Kind     label.NodeType
	Index    int32 // position under the parent: 0 for the root, 1-based for children
	Parent   *Node
	Children []*Node

	// Instance annotation, meaningful for non-special nodes.

	// Graph is the specification graph this node instantiates.
	Graph spec.GraphID
	// RunOf maps each spec vertex of Graph to its run vertex
	// (graph.None while not yet materialized).
	RunOf []graph.VertexID
	// SlotParent is the canonical parse-tree parent: the instance
	// whose composite vertex SlotVertex this instance (or its group)
	// expands. For the members of a recursion chain after the first,
	// SlotParent is the previous chain member and SlotVertex its
	// designated recursive vertex. Nil for the root.
	SlotParent *Node
	SlotVertex graph.VertexID

	// Groups is parallel to RunOf: for a composite vertex of Graph, the
	// node expanding it (an L/F/R group node or a plain child
	// instance), nil while unexpanded and for atomic vertices.
	Groups []*Node

	// Visit is scratch for the execution labeler's candidate walk: the
	// stamp of the last insertion that visited this node. The tree's
	// single writer owns it; it carries no meaning between insertions.
	Visit uint64

	// Prefix is the label context of this node: for special nodes, the
	// node's own temporary label φ_g(x) (Algorithm 3); for instance
	// nodes, the prefix to which a member's final entry is appended.
	Prefix label.Label

	slab *slab // the tree's allocator, shared by every node of it
}

// A slab carves a tree's nodes and every slice they hold — RunOf,
// Groups, child lists, prefixes — from chunks, so opening an instance
// allocates per chunk rather than per instance. A tree only grows and is
// dropped whole, so nothing is ever handed back.
type slab struct {
	nodes   chunks[Node]
	runOf   chunks[graph.VertexID]
	ptrs    chunks[*Node] // Groups and child lists
	entries chunks[label.Entry]
}

// chunks carves slices of T from chunks that start at firstChunk
// elements and double up to lastChunk, as the store's label segments
// do: a small tree pays for a small tree, a large one allocates once per
// lastChunk elements. A request larger than the chunk gets a chunk of
// its own size.
type chunks[T any] struct {
	free []T
	size int // elements in the last chunk allocated
}

const (
	firstChunk = 16
	lastChunk  = 1024
)

// carve returns n zeroed elements capped at n, so an append can never
// cross into a neighbour's.
func (c *chunks[T]) carve(n int) []T {
	if len(c.free) < n {
		c.size = min(max(2*c.size, firstChunk), lastChunk)
		c.free = make([]T, max(c.size, n))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

func (a *slab) node() *Node {
	n := &a.nodes.carve(1)[0]
	n.slab = a
	return n
}

// instance returns a fresh instance node.
func (a *slab) instance(gid spec.GraphID, vertices int) *Node {
	n := a.node()
	n.Kind, n.Graph = label.N, gid
	n.RunOf, n.Groups = a.runOf.carve(vertices), a.ptrs.carve(vertices)
	for i := range n.RunOf {
		n.RunOf[i] = graph.None
	}
	return n
}

// adopt appends c to n's child list. A full list moves to a slab array
// of twice its capacity; the arrays it leaves behind add up to less
// than the one it ends in.
func (n *Node) adopt(c *Node) {
	if len(n.Children) == cap(n.Children) {
		grown := n.slab.ptrs.carve(max(2*cap(n.Children), 1))
		n.Children = grown[:copy(grown, n.Children)]
	}
	n.Children = append(n.Children, c)
}

// PrefixBuf returns an empty entry buffer of capacity size carved from
// the tree's slab, for a prefix that lives as long as the tree: up to
// size entries append in place, and the buffer shares its array with
// nothing else.
func (n *Node) PrefixBuf(size int) []label.Entry {
	return n.slab.entries.carve(size)[:0]
}

// NewRoot creates the root instance annotated with the start graph.
func NewRoot(gid spec.GraphID, vertices int) *Node {
	return new(slab).instance(gid, vertices)
}

// AddSpecial appends a new special child (L, F or R) to n with the
// given sibling index. Expansions of an instance's slots use the slot
// vertex as the index, making labels independent of the order in which
// sibling slots happen to expand; copies under L/F nodes and chain
// members under R nodes use their 1-based position.
func (n *Node) AddSpecial(kind label.NodeType, index int32) *Node {
	if kind == label.N {
		panic("parsetree: AddSpecial with N kind")
	}
	c := n.slab.node()
	c.Kind, c.Parent, c.Index = kind, n, index
	n.adopt(c)
	return c
}

// AddInstance appends a new instance child annotated with the given
// specification graph, with the given sibling index (see AddSpecial).
func (n *Node) AddInstance(gid spec.GraphID, vertices int, index int32) *Node {
	c := n.slab.instance(gid, vertices)
	c.Parent = n
	c.Index = index
	n.adopt(c)
	return c
}

// NextIndex returns the 1-based position for the next ordered child
// (loop/fork copies and recursion-chain members).
func (n *Node) NextIndex() int32 { return int32(len(n.Children) + 1) }

// SlotIndex returns the static sibling index used for the expansion of
// a slot vertex: the slot's vertex id plus one (unique among an
// instance's children, and disjoint from the root's 0).
func SlotIndex(slot graph.VertexID) int32 { return int32(slot) + 1 }

// Depth returns the depth of the subtree rooted at n: the number of
// levels (a single node has depth 1, matching the d_t of Table 1 as a
// level count; Lemma 4.1 bounds edges-depth by 2|Σ\Δ|, i.e. levels by
// 2|Σ\Δ|+1).
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Size returns the number of nodes in the subtree (n_t of Table 1).
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}
