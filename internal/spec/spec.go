// Package spec implements workflow specifications and workflow
// grammars (Definitions 5-7 of the paper), together with the
// structural analyses the labeling schemes rely on: the "induces"
// relation, recursive vertices, linear/nonlinear/parallel recursion
// classification (Definitions 10 and 13, Lemma 5.1), termination, and
// the global inlined specification used by the static SKL baseline.
//
// A specification S = (Σ, Δ, ΔL, ΔF, I, g0) is authored through a
// Builder and compiled into a Grammar, which precomputes per-graph
// reachability closures (the ground truth behind skeleton labels and
// recursion flags) and exposes the classification queries.
package spec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"wfreach/internal/graph"
)

// Kind classifies a module name.
type Kind uint8

const (
	// Atomic names label black-box modules; runs consist only of them.
	Atomic Kind = iota
	// Plain names label composite modules with "or" implementation
	// choice but no repetition.
	Plain
	// Loop names label composite modules whose implementation may be
	// repeated in series (Definition 6's S(h, ..., h) productions).
	Loop
	// Fork names label composite modules whose implementation may be
	// repeated in parallel (P(h, ..., h) productions).
	Fork
)

func (k Kind) String() string {
	switch k {
	case Atomic:
		return "atomic"
	case Plain:
		return "plain"
	case Loop:
		return "loop"
	case Fork:
		return "fork"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Composite reports whether the kind denotes a composite module.
func (k Kind) Composite() bool { return k != Atomic }

// GraphID indexes the graphs of a specification: 0 is the start graph
// g0, higher ids are implementation graphs in declaration order.
type GraphID int32

// StartGraph is the GraphID of g0.
const StartGraph GraphID = 0

// VertexRef names one vertex of one specification graph. It is the
// "pointer to a skeleton label" of Algorithm 1 (the paper stores a
// pointer rather than the label itself, of ⌈log₂ n_G⌉ bits where n_G is
// the total specification size). An encoded label spends less: an
// interior entry's vertex is implied by the next entry's index and its
// graph is a choice among the few its context allows (ChoiceSet), and a
// leaf's is a rank among those graphs' atomic vertices.
type VertexRef struct {
	Graph GraphID
	V     graph.VertexID
}

// NoRef is the zero VertexRef sentinel ("null" in Algorithm 1).
var NoRef = VertexRef{Graph: -1, V: graph.None}

// IsZero reports whether r is the null reference.
func (r VertexRef) IsZero() bool { return r.Graph < 0 }

// NamedGraph is one graph of G(S) = {g0} ∪ {h : (A,h) ∈ I}.
type NamedGraph struct {
	ID    GraphID
	Label string       // display label: "g0", "h1", ...
	Owner string       // composite name this graph implements; "" for g0
	G     *graph.Graph // the graph itself; vertex names are module names
}

// Spec is a validated workflow specification.
type Spec struct {
	kinds  map[string]Kind
	graphs []*NamedGraph
	impls  map[string][]GraphID // composite name -> implementation graphs
}

// Kind returns the kind of a declared name, or Atomic for any name
// that appears only as a vertex label.
func (s *Spec) Kind(name string) Kind { return s.kinds[name] }

// Graphs returns the graphs of G(S); index 0 is the start graph.
func (s *Spec) Graphs() []*NamedGraph { return s.graphs }

// Graph returns the graph with the given id.
func (s *Spec) Graph(id GraphID) *NamedGraph { return s.graphs[id] }

// Implementations returns the implementation graph ids of a composite
// name, in declaration order.
func (s *Spec) Implementations(name string) []GraphID { return s.impls[name] }

// Names returns all declared names in sorted order.
func (s *Spec) Names() []string {
	out := make([]string, 0, len(s.kinds))
	for n := range s.kinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CompositeNames returns the composite names in sorted order.
func (s *Spec) CompositeNames() []string {
	var out []string
	for n, k := range s.kinds {
		if k.Composite() {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Builder assembles a specification. Names not declared with Declare*
// are implicitly atomic.
type Builder struct {
	kinds  map[string]Kind
	graphs []*NamedGraph
	impls  map[string][]GraphID
	errs   []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		kinds: make(map[string]Kind),
		impls: make(map[string][]GraphID),
	}
}

func (b *Builder) declare(kind Kind, names ...string) *Builder {
	for _, n := range names {
		if prev, ok := b.kinds[n]; ok && prev != kind {
			b.errs = append(b.errs, fmt.Errorf("spec: name %q declared both %v and %v", n, prev, kind))
			continue
		}
		b.kinds[n] = kind
	}
	return b
}

// Composite declares plain composite names.
func (b *Builder) Composite(names ...string) *Builder { return b.declare(Plain, names...) }

// Loop declares loop names (members of ΔL).
func (b *Builder) Loop(names ...string) *Builder { return b.declare(Loop, names...) }

// Fork declares fork names (members of ΔF).
func (b *Builder) Fork(names ...string) *Builder { return b.declare(Fork, names...) }

// Atomic declares atomic names explicitly (usually unnecessary).
func (b *Builder) Atomic(names ...string) *Builder { return b.declare(Atomic, names...) }

// Start sets the start graph g0. It must be called exactly once,
// before any Implement call.
func (b *Builder) Start(label string, g *graph.Graph) *Builder {
	if len(b.graphs) > 0 {
		b.errs = append(b.errs, errors.New("spec: Start must be the first graph"))
		return b
	}
	b.graphs = append(b.graphs, &NamedGraph{ID: StartGraph, Label: label, G: g})
	return b
}

// Implement records (owner, g) ∈ I: one possible implementation of the
// composite module owner.
func (b *Builder) Implement(owner, label string, g *graph.Graph) *Builder {
	if len(b.graphs) == 0 {
		b.errs = append(b.errs, errors.New("spec: Implement before Start"))
		return b
	}
	id := GraphID(len(b.graphs))
	b.graphs = append(b.graphs, &NamedGraph{ID: id, Label: label, Owner: owner, G: g})
	b.impls[owner] = append(b.impls[owner], id)
	return b
}

// G is a convenience graph constructor: vertices are named in order,
// edges are given by name pairs. It panics on malformed input (it is a
// literal-building aid; real validation happens in Build).
func G(vertices []string, edges ...[2]string) *graph.Graph {
	g := graph.New()
	idx := make(map[string]graph.VertexID, len(vertices))
	for _, name := range vertices {
		if _, dup := idx[name]; dup {
			panic(fmt.Sprintf("spec.G: duplicate vertex name %q", name))
		}
		idx[name] = g.AddVertex(name)
	}
	for _, e := range edges {
		from, ok := idx[e[0]]
		if !ok {
			panic(fmt.Sprintf("spec.G: unknown vertex %q", e[0]))
		}
		to, ok := idx[e[1]]
		if !ok {
			panic(fmt.Sprintf("spec.G: unknown vertex %q", e[1]))
		}
		g.MustAddEdge(from, to)
	}
	return g
}

// GIdx builds a graph from vertex names (which may repeat, as in the
// lower-bound grammars of Figures 6 and 12) and index-based edges.
func GIdx(vertices []string, edges ...[2]int) *graph.Graph {
	g := graph.New()
	for _, name := range vertices {
		g.AddVertex(name)
	}
	for _, e := range edges {
		g.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return g
}

// Build validates the specification and returns it. The checks cover
// the structural well-formedness assumptions of Section 2.2:
//
//   - the start graph exists; every graph is a two-terminal DAG whose
//     vertices all lie on a source-to-sink path;
//   - the source and sink of every graph are atomic "dummy" modules;
//   - loop and fork names are composite and the sets are disjoint by
//     construction (a name has one kind);
//   - every composite name has at least one implementation, atomic
//     names have none, and every composite name can terminate (derive
//     an all-atomic graph).
//
// The additional naming restrictions of Section 5.3 (distinct names
// within a graph, globally unique terminal names) are only needed to
// resolve execution events by module name; they are checked separately
// by NameResolvable, since the paper's lower-bound grammars (Figures 6
// and 12) legitimately repeat composite names.
func (b *Builder) Build() (*Spec, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.graphs) == 0 {
		return nil, errors.New("spec: no start graph")
	}
	s := &Spec{kinds: b.kinds, graphs: b.graphs, impls: b.impls}

	// Implicitly declare undeclared vertex names as atomic.
	for _, ng := range s.graphs {
		for v := 0; v < ng.G.NumVertices(); v++ {
			name := ng.G.Name(graph.VertexID(v))
			if _, ok := s.kinds[name]; !ok {
				s.kinds[name] = Atomic
			}
		}
	}

	for _, ng := range s.graphs {
		g := ng.G
		if g.NumVertices() < 2 {
			return nil, fmt.Errorf("spec: graph %s has fewer than 2 vertices", ng.Label)
		}
		if !g.IsTwoTerminal() {
			return nil, fmt.Errorf("spec: graph %s is not two-terminal", ng.Label)
		}
		if !g.SpansSourceToSink() {
			return nil, fmt.Errorf("spec: graph %s has vertices off the source-sink paths", ng.Label)
		}
		for _, term := range []graph.VertexID{g.Source(), g.Sink()} {
			name := g.Name(term)
			if s.kinds[name] != Atomic {
				return nil, fmt.Errorf("spec: graph %s terminal %q must be atomic", ng.Label, name)
			}
		}
	}

	for name, kind := range s.kinds {
		n := len(s.impls[name])
		if kind.Composite() && n == 0 {
			return nil, fmt.Errorf("spec: composite name %q has no implementation", name)
		}
		if !kind.Composite() && n > 0 {
			return nil, fmt.Errorf("spec: atomic name %q has implementations", name)
		}
	}
	for owner := range s.impls {
		if !s.kinds[owner].Composite() {
			return nil, fmt.Errorf("spec: implementation owner %q is not composite", owner)
		}
	}

	if bad := s.nonTerminating(); len(bad) > 0 {
		return nil, fmt.Errorf("spec: composite name(s) %v cannot terminate", bad)
	}
	return s, nil
}

// MustBuild is Build panicking on error, for the built-in specs.
func (b *Builder) MustBuild() *Spec {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// NameResolvable checks the two naming restrictions of Section 5.3
// under which execution events can be resolved by module name alone:
// (1) all vertices of each graph in G(S) have distinct names, and (2)
// the source and sink dummies of each graph have names occurring in no
// other graph and nowhere else in their own graph. Specifications
// violating these can still be labeled when events carry explicit
// specification-vertex ids (the execution-log mapping).
func (s *Spec) NameResolvable() error {
	terminalOwner := make(map[string]GraphID)
	for _, ng := range s.graphs {
		g := ng.G
		seen := make(map[string]bool, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			name := g.Name(graph.VertexID(v))
			if seen[name] {
				return fmt.Errorf("spec: graph %s repeats vertex name %q", ng.Label, name)
			}
			seen[name] = true
		}
		for _, term := range []graph.VertexID{g.Source(), g.Sink()} {
			name := g.Name(term)
			if prev, ok := terminalOwner[name]; ok && prev != ng.ID {
				return fmt.Errorf("spec: terminal name %q appears in two graphs", name)
			}
			terminalOwner[name] = ng.ID
		}
	}
	for _, ng := range s.graphs {
		g := ng.G
		for v := 0; v < g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			name := g.Name(vid)
			owner, isTerm := terminalOwner[name]
			if isTerm && (owner != ng.ID || (vid != g.Source() && vid != g.Sink())) {
				return fmt.Errorf("spec: dummy name %q reused in graph %s", name, ng.Label)
			}
		}
	}
	return nil
}

// nonTerminating returns the composite names that can never derive an
// all-atomic graph, via the standard fixpoint.
func (s *Spec) nonTerminating() []string {
	term := make(map[string]bool)
	for n, k := range s.kinds {
		if k == Atomic {
			term[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for name, impls := range s.impls {
			if term[name] {
				continue
			}
			for _, id := range impls {
				all := true
				g := s.graphs[id].G
				for v := 0; v < g.NumVertices(); v++ {
					if !term[g.Name(graph.VertexID(v))] {
						all = false
						break
					}
				}
				if all {
					term[name] = true
					changed = true
					break
				}
			}
		}
	}
	var bad []string
	for name, k := range s.kinds {
		if k.Composite() && !term[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// String renders the specification in the style of Example 3.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec{start=%s", s.graphs[0].Label)
	for _, name := range s.CompositeNames() {
		var labels []string
		for _, id := range s.impls[name] {
			labels = append(labels, s.graphs[id].Label)
		}
		fmt.Fprintf(&b, " %s(%v):=%s", name, s.kinds[name], strings.Join(labels, "|"))
	}
	b.WriteByte('}')
	return b.String()
}
