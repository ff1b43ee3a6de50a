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
	"math/rand"

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
	ng := r.Grammar.Spec().Graph(impl)
	if ng == nil || ng.Owner != name {
		return nil, fmt.Errorf("run: graph %d does not implement %s", impl, name)
	}
	if copies < 1 {
		return nil, fmt.Errorf("run: copies = %d", copies)
	}
	if copies > 1 && kind != spec.Loop && kind != spec.Fork {
		return nil, fmt.Errorf("run: %d copies for non-loop/fork %s", copies, name)
	}

	// Build the replacement graph: h itself (Replace only reads it),
	// S(h,...,h) or P(h,...,h).
	repl, m := ng.G, graph.Mapping(nil)
	if copies > 1 {
		parts := make([]*graph.Graph, copies)
		for i := range parts {
			parts[i] = ng.G
		}
		if kind == spec.Loop {
			repl, m = graph.Series(parts...)
		} else {
			repl, m = graph.Parallel(parts...)
		}
	}

	res, err := r.Graph.Replace(u, repl)
	if err != nil {
		return nil, err
	}

	st := &Step{Target: u, Impl: impl, Copies: copies, IDs: [][]graph.VertexID{res.VertexOf}}
	if m != nil {
		st.IDs = make([][]graph.VertexID, copies)
		for c := range st.IDs {
			st.IDs[c] = make([]graph.VertexID, ng.G.NumVertices())
			for v := range st.IDs[c] {
				st.IDs[c][v] = res.VertexOf[m[c][v]]
			}
		}
	}
	// Bookkeeping: spec refs and open composites for the new vertices,
	// in copy-then-vertex order.
	for c := 0; c < copies; c++ {
		for v := 0; v < ng.G.NumVertices(); v++ {
			vid := graph.VertexID(v)
			id := st.IDs[c][v]
			for int(id) >= len(r.SpecOf) {
				r.SpecOf = append(r.SpecOf, spec.NoRef)
			}
			r.SpecOf[id] = spec.VertexRef{Graph: impl, V: vid}
			if r.Grammar.Spec().Kind(ng.G.Name(vid)).Composite() {
				r.open = append(r.open, id)
			}
		}
	}
	r.removeOpen(u)
	r.Steps = append(r.Steps, *st)
	return st, nil
}

func (r *Run) removeOpen(u graph.VertexID) {
	for i, v := range r.open {
		if v == u {
			r.open = append(r.open[:i], r.open[i+1:]...)
			return
		}
	}
}

// Execution converts the completed run into a sequence of insertions
// in a topological order of the final graph (Definition 8): vertices
// are executed respecting data dependencies. With rng non-nil the
// order among ready vertices is randomized (any topological order is a
// valid execution); otherwise smallest-id-first is used.
func (r *Run) Execution(rng *rand.Rand) ([]Event, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("run: execution of an incomplete run")
	}
	g := r.Graph
	n := g.NumVertices()
	indeg := make([]int, n)
	var ready []graph.VertexID
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		if g.IsTombstone(vid) {
			continue
		}
		indeg[v] = g.InDegree(vid)
		if indeg[v] == 0 {
			ready = append(ready, vid)
		}
	}
	events := make([]Event, 0, g.LiveCount())
	for len(ready) > 0 {
		var idx int
		if rng != nil {
			idx = rng.Intn(len(ready))
		}
		v := ready[idx]
		ready = append(ready[:idx], ready[idx+1:]...)
		events = append(events, Event{
			V:     v,
			Ref:   r.SpecOf[v],
			Preds: append([]graph.VertexID(nil), g.In(v)...),
		})
		for _, w := range g.Out(v) {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(events) != g.LiveCount() {
		return nil, fmt.Errorf("run: execution covered %d of %d vertices", len(events), g.LiveCount())
	}
	return events, nil
}

// Reaches answers ground-truth reachability on the current graph.
func (r *Run) Reaches(v, w graph.VertexID) bool { return r.Graph.Reaches(v, w) }
