// Package core implements DRL, the paper's dynamic reachability
// labeling scheme for workflow runs: the derivation-based labeler
// (Algorithms 2 and 3), the execution-based labeler (Section 5.3), and
// the query predicate π (Algorithm 4). For linear recursive grammars
// labels are O(log n) bits, labeling a run takes linear total time,
// and queries take constant time (Theorem 3). Nonlinear recursive
// grammars are supported through the Section 6 adaptation, at the cost
// of linear-size labels in the worst case (Theorem 1).
//
// A label carries Algorithm 1's entries less what the grammar implies:
// the labelers issue no recursion flags, and π evaluates the one it
// needs — the earlier chain member's, below an R ancestor — on the
// skeleton, between that member's origin and its graph's designated
// recursive vertex (see lca). The label codec leaves out the types and
// the root's index the same way (internal/label).
//
// # Thread safety
//
// Labelers are single-writer: Insert, InsertNamed, Start and Apply mutate
// the parse tree and must be called from one goroutine (or externally
// serialized). Everything a labeler hands out is safe to share across
// goroutines once returned: labels are immutable (Section 2.4 — a
// vertex is labeled exactly once, at insertion, and the label never
// changes), and the skeleton.Scheme plus the grammar are read-only
// after construction, so Pi may be evaluated concurrently on
// previously issued labels while new vertices are still being
// inserted. Accessors that read labeler-internal state (Label,
// MustLabel, Reach) race with concurrent Insert calls and
// need the same serialization; concurrent services should instead copy
// each label into their own read-side store as Insert returns it —
// that is the discipline internal/service implements.
//
// The execution labeler also keeps per-event scratch (comparison
// buffers, a visit stamp on parse-tree nodes) that every Insert
// overwrites, so two concurrent Inserts corrupt each other's search,
// not merely its order. Nothing returned ever points into scratch: the
// append-style entry points (AppendInsert, AppendInsertNamed) write the
// label into a buffer the caller hands in and keep no reference to it.
package core

import (
	"fmt"
	"slices"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// RMode selects how recursive vertices are compressed (Section 6).
type RMode uint8

const (
	// RModeDesignated compresses at most one recursive vertex per
	// production into R-node chains: the full Section 5 scheme on
	// linear grammars, and the optimized Section 6 adaptation on
	// nonlinear ones.
	RModeDesignated RMode = iota
	// RModeNone builds the simplified explicit parse tree with no R
	// nodes, treating every vertex non-recursively (the first
	// adaptation described in Section 6).
	RModeNone
)

func (m RMode) String() string {
	if m == RModeNone {
		return "no-R"
	}
	return "designated-R"
}

// base holds the state shared by the derivation-based and
// execution-based labelers: the explicit parse tree and the
// bookkeeping from run vertices to tree instances. Issued labels are
// not stored; Label rebuilds them (see appendLabel).
type base struct {
	g    *spec.Grammar
	skel *skeleton.Scheme
	mode RMode

	root *parsetree.Node
	// ctx maps a run vertex to its context instance and spec vertex
	// (Definition 11: the instance whose annotated graph contains it).
	ctx vertexTable
}

type memberRef struct {
	node *parsetree.Node
	sv   graph.VertexID
}

// A vertexPage holds the contexts of vertexPageSize consecutive run
// vertex ids; the zero memberRef (nil node) means "not inserted".
const (
	vertexPageShift = 10
	vertexPageSize  = 1 << vertexPageShift
)

type vertexPage [vertexPageSize]memberRef

// vertexTable is the run-vertex → context table: a paged array indexed
// by vertex id, the same shape as the store's index one layer down —
// runs number their vertices densely from 0, so a lookup is two loads
// and no hashing, a page is allocated the first time an id in its
// range is inserted, and a far-out id costs that one page plus a
// directory of nil pointers. The labeler is single-writer, so nothing
// here is atomic.
type vertexTable struct {
	pages []*vertexPage
	n     int // vertices inserted
}

// get returns the context of v; ok is false for an id never inserted,
// negative ones included.
func (t *vertexTable) get(v graph.VertexID) (ref memberRef, ok bool) {
	// A negative id shifts to an index past any directory.
	i := int(uint32(v) >> vertexPageShift)
	if i >= len(t.pages) || t.pages[i] == nil {
		return memberRef{}, false
	}
	ref = t.pages[i][v&(vertexPageSize-1)]
	return ref, ref.node != nil
}

// put records the context of v, which must be non-negative and new.
func (t *vertexTable) put(v graph.VertexID, ref memberRef) {
	i := int(v >> vertexPageShift)
	if i >= len(t.pages) {
		t.pages = append(t.pages, make([]*vertexPage, i+1-len(t.pages))...)
	}
	if t.pages[i] == nil {
		t.pages[i] = new(vertexPage)
	}
	t.pages[i][v&(vertexPageSize-1)] = ref
	t.n++
}

func newBase(g *spec.Grammar, kind skeleton.Kind, mode RMode) base {
	return base{g: g, skel: skeleton.New(kind, g), mode: mode}
}

// designatedOf returns the R-compressed recursive vertex of a graph
// under the current mode.
func (b *base) designatedOf(id spec.GraphID) graph.VertexID {
	if b.mode == RModeNone {
		return graph.None
	}
	return b.g.Designated(id)
}

// memberEntry builds the Algorithm 1 entry for spec vertex sv of
// instance x: the node's index and type and the skeleton pointer of the
// origin. A recursion-chain member's two flags are not part of it: π
// evaluates them on the skeleton where it needs them (see lca).
func memberEntry(x *parsetree.Node, sv graph.VertexID) label.Entry {
	return label.Entry{Index: x.Index, Type: label.N, Skl: spec.VertexRef{Graph: x.Graph, V: sv}}
}

// specialEntry builds the entry of a special node (skl and flags null).
func specialEntry(x *parsetree.Node) label.Entry {
	return label.Entry{Index: x.Index, Type: x.Kind, Skl: spec.NoRef}
}

// bind materializes spec vertex sv of instance x as run vertex v,
// which fixes its reachability label (appendLabel writes it out).
// Labels are immutable: binding an already-labeled vertex panics (it
// would be a labeler bug).
func (b *base) bind(x *parsetree.Node, sv, v graph.VertexID) {
	if x.RunOf[sv] != graph.None {
		panic(fmt.Sprintf("core: spec vertex %d of instance already materialized", sv))
	}
	if _, dup := b.ctx.get(v); dup {
		panic(fmt.Sprintf("core: run vertex %d labeled twice", v))
	}
	x.RunOf[sv] = v
	b.ctx.put(v, memberRef{x, sv})
}

// appendLabel appends φ_g of spec vertex sv of instance x, materialized
// or not, to dst: the instance's prefix plus the vertex's member entry.
// Both are fixed once x exists, so every call writes equal entries —
// which is why issued labels need not be kept. dst grows at most once.
func (b *base) appendLabel(dst []label.Entry, x *parsetree.Node, sv graph.VertexID) []label.Entry {
	dst = slices.Grow(dst, len(x.Prefix.Entries)+1)
	dst = append(dst, x.Prefix.Entries...)
	return append(dst, memberEntry(x, sv))
}

// labelOf is appendLabel into a fresh label, the caller's to keep.
func (b *base) labelOf(x *parsetree.Node, sv graph.VertexID) label.Label {
	return label.Label{Entries: b.appendLabel(nil, x, sv)}
}

// expansionPrefix writes the prefix of a node expanding slot sv of
// instance y once, straight into the tree's slab: φ_g(sv) — whether or
// not sv was ever materialized — followed by the node's own entry for a
// group node (own), nothing for a plain replacement.
func (b *base) expansionPrefix(y *parsetree.Node, sv graph.VertexID, own ...label.Entry) label.Label {
	buf := y.PrefixBuf(len(y.Prefix.Entries) + 1 + len(own))
	return label.Label{Entries: append(b.appendLabel(buf, y, sv), own...)}
}

// Label returns the reachability label of a run vertex: a fresh copy
// of what its insertion issued.
func (b *base) Label(v graph.VertexID) (label.Label, bool) {
	ref, ok := b.ctx.get(v)
	if !ok {
		return label.Label{}, false
	}
	return b.labelOf(ref.node, ref.sv), true
}

// MustLabel returns the label of v, panicking if v was never labeled.
func (b *base) MustLabel(v graph.VertexID) label.Label {
	l, ok := b.Label(v)
	if !ok {
		panic(fmt.Sprintf("core: vertex %d has no label", v))
	}
	return l
}

// Reach answers v ;* w from the two labels (π of Algorithm 4).
func (b *base) Reach(v, w graph.VertexID) bool {
	return Pi(b.skel, b.MustLabel(v), b.MustLabel(w))
}

// Tree returns the explicit parse tree (nil before the first update).
func (b *base) Tree() *parsetree.Node { return b.root }

// Skeleton returns the skeleton scheme used by this labeler.
func (b *base) Skeleton() *skeleton.Scheme { return b.skel }

// graphOf returns the specification graph of an instance node.
func (b *base) graphOf(x *parsetree.Node) *graph.Graph {
	return b.g.Spec().Graph(x.Graph).G
}

// startRoot creates the root instance annotated with g0.
func (b *base) startRoot() *parsetree.Node {
	g0 := b.g.Spec().Graph(spec.StartGraph).G
	b.root = parsetree.NewRoot(spec.StartGraph, g0.NumVertices())
	return b.root
}
