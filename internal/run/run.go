// Package run materializes workflow runs: it applies derivation steps
// (vertex replacements, Definition 9) to build the execution graph,
// tracks the specification vertex behind every run vertex (the
// "execution log" mapping of Section 5.3), and converts completed
// derivations into execution sequences (vertex insertions, Definition
// 8). The same applied steps drive both the ground-truth graph and the
// dynamic labelers, so tests can compare them move by move.
package run

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
)

// Step is one applied derivation step g_{i-1}[u/h] ⇒ g_i. For loop and
// fork targets a single step may replace u with the series or parallel
// composition of Copies copies of the implementation (the pumped
// productions of Definition 6).
type Step struct {
	// Target is the composite run vertex u being replaced.
	Target graph.VertexID
	// Impl is the implementation graph h chosen for Name(u).
	Impl spec.GraphID
	// Copies is the number of copies composed (1 unless Name(u) is a
	// loop or fork name).
	Copies int
	// IDs[c][v] is the run vertex assigned to spec vertex v of copy c.
	IDs [][]graph.VertexID
}

// Event is one vertex insertion of an execution (Definition 8),
// annotated with the specification vertex it executes — the mapping
// that workflow systems record in execution logs (Section 5.3).
type Event struct {
	V     graph.VertexID
	Ref   spec.VertexRef
	Preds []graph.VertexID
}

// Run is a (possibly still deriving) workflow run.
type Run struct {
	Grammar *spec.Grammar
	// Graph is the current execution graph. Replaced composite
	// vertices remain as tombstones so run vertex ids stay stable.
	Graph *graph.Graph
	// SpecOf maps every run vertex (live or tombstone) to the
	// specification vertex it instantiates.
	SpecOf []spec.VertexRef
	// StartIDs[v] is the run vertex of spec vertex v of g0.
	StartIDs []graph.VertexID
	// Steps is the derivation applied so far.
	Steps []Step

	open []graph.VertexID // live composite vertices, in creation order
}

// New starts a run at the start graph g0.
func New(g *spec.Grammar) *Run {
	r := &Run{Grammar: g, Graph: graph.New()}
	g0 := g.Spec().Graph(spec.StartGraph).G
	r.StartIDs = make([]graph.VertexID, g0.NumVertices())
	for v := 0; v < g0.NumVertices(); v++ {
		vid := graph.VertexID(v)
		id := r.Graph.AddVertex(g0.Name(vid))
		r.StartIDs[v] = id
		r.SpecOf = append(r.SpecOf, spec.VertexRef{Graph: spec.StartGraph, V: vid})
		if g.Spec().Kind(g0.Name(vid)).Composite() {
			r.open = append(r.open, id)
		}
	}
	for v := 0; v < g0.NumVertices(); v++ {
		for _, w := range g0.Out(graph.VertexID(v)) {
			r.Graph.MustAddEdge(r.StartIDs[v], r.StartIDs[w])
		}
	}
	return r
}

// Grow reserves room for n more run vertices, so that a derivation
// adding up to n does not reallocate the graph's per-vertex arrays or
// SpecOf.
func (r *Run) Grow(n int) {
	r.Graph.Grow(n)
	r.SpecOf = slices.Grow(r.SpecOf, n)
}

// Open returns the live composite run vertices, oldest first. The
// returned slice is owned by the run.
func (r *Run) Open() []graph.VertexID { return r.open }

// Complete reports whether the run has no composite vertices left,
// i.e. it is a member of L(G) (Definition 7).
func (r *Run) Complete() bool { return len(r.open) == 0 }

// NameOf returns the module name of a run vertex.
func (r *Run) NameOf(v graph.VertexID) string {
	ref := r.SpecOf[v]
	return r.Grammar.Spec().Graph(ref.Graph).G.Name(ref.V)
}

// Size returns the number of live vertices.
func (r *Run) Size() int { return r.Graph.LiveCount() }

// Apply replaces the composite run vertex u with copies of the given
// implementation graph, returning the applied step. It validates that
// u is a live composite vertex, that impl implements Name(u), and that
// copies is 1 unless Name(u) is a loop or fork name.
func (r *Run) Apply(u graph.VertexID, impl spec.GraphID, copies int) (*Step, error) {
	if !r.Graph.Valid(u) || r.Graph.IsTombstone(u) {
		return nil, fmt.Errorf("run: target %d is not a live vertex", u)
	}
	name := r.NameOf(u)
	kind := r.Grammar.Spec().Kind(name)
	if !kind.Composite() {
		return nil, fmt.Errorf("run: target %d (%s) is atomic", u, name)
	}
	if impl < 0 || int(impl) >= len(r.Grammar.Spec().Graphs()) {
		return nil, fmt.Errorf("run: graph %d does not exist", impl)
	}
	ng := r.Grammar.Spec().Graph(impl)
	if ng.Owner != name {
		return nil, fmt.Errorf("run: graph %d does not implement %s", impl, name)
	}
	if copies < 1 {
		return nil, fmt.Errorf("run: copies = %d", copies)
	}
	if copies > 1 && kind != spec.Loop && kind != spec.Fork {
		return nil, fmt.Errorf("run: %d copies for non-loop/fork %s", copies, name)
	}

	// Splice h, S(h,...,h) or P(h,...,h) into the graph: copy c's
	// vertex v lands at base + c·|h| + v.
	base, err := r.Graph.ReplaceCopies(u, ng.G, copies, kind == spec.Loop)
	if err != nil {
		return nil, err
	}
	n := ng.G.NumVertices()
	ids := make([]graph.VertexID, copies*n)
	for i := range ids {
		ids[i] = base + graph.VertexID(i)
	}
	st := &Step{Target: u, Impl: impl, Copies: copies, IDs: make([][]graph.VertexID, copies)}
	for c := range st.IDs {
		st.IDs[c] = ids[c*n : (c+1)*n : (c+1)*n]
	}
	// Bookkeeping: spec refs and open composites for the new vertices,
	// in copy-then-vertex order.
	r.SpecOf = slices.Grow(r.SpecOf, len(ids))
	for c := 0; c < copies; c++ {
		for v := 0; v < n; v++ {
			r.SpecOf = append(r.SpecOf, spec.VertexRef{Graph: impl, V: graph.VertexID(v)})
		}
	}
	r.removeOpen(u)
	first := len(r.open)
	for v := 0; v < n; v++ {
		if r.Grammar.Spec().Kind(ng.G.Name(graph.VertexID(v))).Composite() {
			r.open = append(r.open, base+graph.VertexID(v))
		}
	}
	// The later copies' composites are the first copy's, shifted;
	// firstCopy keeps its values when append moves r.open.
	firstCopy := r.open[first:]
	for c := 1; c < copies; c++ {
		for _, id := range firstCopy {
			r.open = append(r.open, id+graph.VertexID(c*n))
		}
	}
	r.Steps = append(r.Steps, *st)
	return st, nil
}

// removeOpen drops u from the open composites. The generators expand
// the oldest or the newest, so u is at an end and nothing shifts.
func (r *Run) removeOpen(u graph.VertexID) {
	if r.open[0] == u {
		r.open = r.open[1:]
		return
	}
	for i := len(r.open) - 1; i > 0; i-- {
		if r.open[i] == u {
			r.open = append(r.open[:i], r.open[i+1:]...)
			return
		}
	}
}

// Execution converts the completed run into a sequence of insertions
// in a topological order of the final graph (Definition 8): vertices
// are executed respecting data dependencies. With rng non-nil the
// order among ready vertices is randomized (any topological order is a
// valid execution); otherwise it is first-ready-first: the sources in
// id order, then every other vertex as soon as its last predecessor
// has run, ties in that predecessor's out-list order.
//
// Every event's Preds is carved from one slab of NumEdges ids, and a
// random draw is an O(log n) pick that takes the vertex a shifting
// ready list would, so equal seeds give equal executions.
func (r *Run) Execution(rng *rand.Rand) ([]Event, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("run: execution of an incomplete run")
	}
	g := r.Graph
	n, live := g.NumVertices(), g.LiveCount()
	indeg := make([]int32, n)
	// ready lists every vertex in the order it became ready; a draw
	// takes the idx-th of those not yet drawn.
	ready := make([]graph.VertexID, 0, live)
	drawable := newPending(live)
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		if g.IsTombstone(vid) {
			continue
		}
		indeg[v] = int32(g.InDegree(vid))
		if indeg[v] == 0 {
			drawable.insert(len(ready))
			ready = append(ready, vid)
		}
	}
	events := make([]Event, 0, live)
	slab := make([]graph.VertexID, g.NumEdges())
	for left := len(ready); left > 0; left-- {
		var idx int
		if rng != nil {
			idx = rng.Intn(left)
		}
		v := ready[drawable.take(idx)]
		var preds []graph.VertexID
		if in := g.In(v); len(in) > 0 {
			preds = slab[:len(in):len(in)]
			slab = slab[len(in):]
			copy(preds, in)
		}
		events = append(events, Event{V: v, Ref: r.SpecOf[v], Preds: preds})
		for _, w := range g.Out(v) {
			indeg[w]--
			if indeg[w] == 0 {
				drawable.insert(len(ready))
				ready = append(ready, w)
				left++
			}
		}
	}
	if len(events) != live {
		return nil, fmt.Errorf("run: execution covered %d of %d vertices", len(events), live)
	}
	return events, nil
}

// pending is a set of ready-list positions: a bitmap, and a Fenwick
// tree counting the members of each 64-position word of it. The tree
// has one entry per 64 positions, so a pick walks a few cached words
// where a tree over the positions themselves would miss the cache on
// most levels.
type pending struct {
	words []uint64
	tree  []int32 // 1-based Fenwick tree over the words' member counts
	top   int     // the highest power of two not above the word count
}

// newPending returns an empty set of positions 0..n-1.
func newPending(n int) pending {
	w := (n + 63) / 64
	return pending{words: make([]uint64, w), tree: make([]int32, w+1), top: 1 << bits.Len(uint(w)) >> 1}
}

// insert adds position pos to the set.
func (p *pending) insert(pos int) {
	p.words[pos/64] |= 1 << (pos % 64)
	for i := pos/64 + 1; i < len(p.tree); i += i & -i {
		p.tree[i]++
	}
}

// take removes and returns the i-th member in position order, counting
// from 0, in O(log n).
func (p *pending) take(i int) int {
	// Descend to the word holding the member. The nodes the descent
	// does not step past are exactly the ones counting that word, so
	// it drops the member from them on the way.
	word := 0
	for step := p.top; step > 0; step >>= 1 {
		next := word + step
		if next >= len(p.tree) {
			continue
		}
		if c := int(p.tree[next]); c <= i {
			word, i = next, i-c
		} else {
			p.tree[next]--
		}
	}
	// The i-th set bit of the word: halve the search down to a byte,
	// then clear the lowest bits of that byte.
	w, pos := p.words[word], 0
	for width := 32; width >= 8; width /= 2 {
		if lo := bits.OnesCount64(w & (1<<width - 1)); i >= lo {
			i -= lo
			w >>= width
			pos += width
		}
	}
	for ; i > 0; i-- {
		w &= w - 1
	}
	pos += bits.TrailingZeros64(w)
	p.words[word] &^= 1 << pos
	return word*64 + pos
}

// Reaches answers ground-truth reachability on the current graph.
func (r *Run) Reaches(v, w graph.VertexID) bool { return r.Graph.Reaches(v, w) }
