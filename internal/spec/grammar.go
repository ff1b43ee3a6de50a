package spec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wfreach/internal/graph"
)

// Class classifies a workflow grammar by its recursion structure
// (Section 4.1 and Section 6).
type Class uint8

const (
	// ClassNonRecursive grammars have no recursive vertices at all
	// (loops and forks only) — the domain of the static SKL baseline.
	ClassNonRecursive Class = iota
	// ClassLinear grammars are linear recursive (Definition 10): every
	// production has at most one recursive vertex. This is the largest
	// class admitting compact dynamic labeling (Theorems 3 and 4).
	ClassLinear
	// ClassNonlinearSeries grammars have a production with several
	// recursive vertices, all pairwise reachable (series). Whether
	// these admit compact execution-based labeling is the paper's open
	// problem; Example 15 exhibits a compact special case.
	ClassNonlinearSeries
	// ClassNonlinearParallel grammars are parallel recursive
	// (Definition 13): some production has two mutually unreachable
	// recursive vertices. These require Ω(n)-bit labels even in the
	// execution-based model (Theorem 5).
	ClassNonlinearParallel
)

func (c Class) String() string {
	switch c {
	case ClassNonRecursive:
		return "non-recursive"
	case ClassLinear:
		return "linear-recursive"
	case ClassNonlinearSeries:
		return "nonlinear-series-recursive"
	case ClassNonlinearParallel:
		return "nonlinear-parallel-recursive"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Grammar is a compiled specification: the workflow grammar of
// Definition 6 plus the precomputed analyses used by the labelers.
type Grammar struct {
	spec *Spec

	induces   map[string]map[string]bool // reflexive-transitive ↦*
	recVerts  [][]graph.VertexID         // per graph: recursive vertices (ascending)
	graphs    []graphFacts               // per graph: what a labeler asks of it per expansion
	class     Class
	minExpand map[string]int // per composite name: min atomic vertices of a full expansion

	totalVertices int
}

// graphFacts is what the labelers look up about one specification graph
// each time they expand one of its vertices.
type graphFacts struct {
	designated graph.VertexID // compressed recursive vertex or None
	// slotRank[v] is composite vertex v's 0-based rank among the graph's
	// composite vertices in vertex order, -1 for an atomic vertex.
	slotRank []int32
}

// Compile analyzes a specification into a Grammar.
func Compile(s *Spec) (*Grammar, error) {
	g := &Grammar{spec: s, minExpand: make(map[string]int)}

	// Direct "induces" relation: A ↦ B if some implementation of A has
	// a vertex named B (Section 4.1).
	direct := make(map[string]map[string]bool)
	for name := range s.kinds {
		direct[name] = map[string]bool{}
	}
	for owner, impls := range s.impls {
		for _, id := range impls {
			gg := s.graphs[id].G
			for v := 0; v < gg.NumVertices(); v++ {
				direct[owner][gg.Name(graph.VertexID(v))] = true
			}
		}
	}
	g.induces = transitiveReflexiveClosure(direct)

	// Recursive vertices per implementation graph: u is recursive in
	// production A := h iff Name(u) induces A.
	g.recVerts = make([][]graph.VertexID, len(s.graphs))
	g.graphs = make([]graphFacts, len(s.graphs))
	for _, ng := range s.graphs {
		g.totalVertices += ng.G.NumVertices()
	}
	ranks := make([]int32, g.totalVertices)
	for i, ng := range s.graphs {
		n := ng.G.NumVertices()
		f := &g.graphs[i]
		f.designated, f.slotRank, ranks = graph.None, ranks[:n:n], ranks[n:]
		rank := int32(0)
		for v := range f.slotRank {
			f.slotRank[v] = -1
			if s.kinds[ng.G.Name(graph.VertexID(v))].Composite() {
				f.slotRank[v] = rank
				rank++
			}
		}
	}
	recursion := false
	linear := true
	parallel := false
	series := false
	for _, ng := range s.graphs {
		if ng.Owner == "" {
			continue // the start graph heads no production
		}
		gg := ng.G
		var rec []graph.VertexID
		for v := 0; v < gg.NumVertices(); v++ {
			if g.induces[gg.Name(graph.VertexID(v))][ng.Owner] {
				rec = append(rec, graph.VertexID(v))
			}
		}
		g.recVerts[ng.ID] = rec
		if len(rec) == 0 {
			continue
		}
		recursion = true
		ownerKind := s.kinds[ng.Owner]
		if ownerKind == Loop || ownerKind == Fork {
			// The pumped production S(h,h) or P(h,h) has two recursive
			// vertices (Lemma 5.1), so the grammar is nonlinear; for a
			// fork the two copies are mutually unreachable (parallel).
			linear = false
			if ownerKind == Fork {
				parallel = true
			} else {
				series = true
			}
			// No designated vertex inside loop/fork bodies: the §6
			// adaptation treats these occurrences non-recursively.
			continue
		}
		if len(rec) > 1 {
			linear = false
			cl := gg.Closure()
			foundParallel := false
			for i := 0; i < len(rec) && !foundParallel; i++ {
				for j := i + 1; j < len(rec); j++ {
					if !cl.Reaches(rec[i], rec[j]) && !cl.Reaches(rec[j], rec[i]) {
						foundParallel = true
						break
					}
				}
			}
			if foundParallel {
				parallel = true
			} else {
				series = true
			}
		}
		// Designate the topologically first recursive vertex for R-node
		// compression (§6: "compressing at most one recursive vertex
		// using a special R node"). Loop- and fork-named vertices are
		// never designated: a recursion chain member must be a single
		// instance, and in linear grammars such vertices cannot be
		// recursive anyway (Lemma 5.1, part 2).
		var eligible []graph.VertexID
		for _, v := range rec {
			k := s.kinds[gg.Name(v)]
			if k != Loop && k != Fork {
				eligible = append(eligible, v)
			}
		}
		if len(eligible) > 0 {
			g.graphs[ng.ID].designated = firstInTopoOrder(gg, eligible)
		}
	}
	switch {
	case !recursion:
		g.class = ClassNonRecursive
	case linear:
		g.class = ClassLinear
	case parallel:
		g.class = ClassNonlinearParallel
	default:
		g.class = ClassNonlinearSeries
		_ = series
	}

	g.computeMinExpand()
	return g, nil
}

// MustCompile is Compile panicking on error.
func MustCompile(s *Spec) *Grammar {
	g, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return g
}

func transitiveReflexiveClosure(direct map[string]map[string]bool) map[string]map[string]bool {
	closure := make(map[string]map[string]bool, len(direct))
	for a := range direct {
		// BFS over the direct relation from a.
		seen := map[string]bool{a: true}
		queue := []string{a}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for nxt := range direct[cur] {
				if !seen[nxt] {
					seen[nxt] = true
					queue = append(queue, nxt)
				}
			}
		}
		closure[a] = seen
	}
	return closure
}

func firstInTopoOrder(g *graph.Graph, candidates []graph.VertexID) graph.VertexID {
	inSet := make(map[graph.VertexID]bool, len(candidates))
	for _, v := range candidates {
		inSet[v] = true
	}
	for _, v := range g.TopoOrder() {
		if inSet[v] {
			return v
		}
	}
	return graph.None
}

func (g *Grammar) computeMinExpand() {
	const inf = math.MaxInt32
	for name, k := range g.spec.kinds {
		if k.Composite() {
			g.minExpand[name] = inf
		}
	}
	cost := func(id GraphID) int {
		gg := g.spec.graphs[id].G
		sum := 0
		for v := 0; v < gg.NumVertices(); v++ {
			name := gg.Name(graph.VertexID(v))
			if g.spec.kinds[name].Composite() {
				c := g.minExpand[name]
				if c == inf {
					return inf
				}
				sum += c
			} else {
				sum++
			}
		}
		return sum
	}
	for changed := true; changed; {
		changed = false
		for name, impls := range g.spec.impls {
			best := g.minExpand[name]
			for _, id := range impls {
				if c := cost(id); c < best {
					best = c
				}
			}
			if best < g.minExpand[name] {
				g.minExpand[name] = best
				changed = true
			}
		}
	}
}

// Spec returns the underlying specification.
func (g *Grammar) Spec() *Spec { return g.spec }

// Class returns the recursion class.
func (g *Grammar) Class() Class { return g.class }

// IsRecursive reports whether any production has a recursive vertex.
func (g *Grammar) IsRecursive() bool { return g.class != ClassNonRecursive }

// Designated returns the recursive vertex of graph id compressed by R
// nodes (graph.None when the graph has none, or when its owner is a
// loop or fork). For linear recursive grammars this is the unique
// recursive vertex.
func (g *Grammar) Designated(id GraphID) graph.VertexID { return g.graphs[id].designated }

// SlotRank returns composite vertex v's 0-based rank among the composite
// vertices of graph id, in vertex order. It is the index of the
// parse-tree child that expands v under its instance, so those indexes
// cost the log θ_t bits Algorithm 1 budgets for them.
func (g *Grammar) SlotRank(id GraphID, v graph.VertexID) int32 { return g.graphs[id].slotRank[v] }

// MinExpansion returns the minimum number of atomic vertices a full
// expansion of the composite name can produce (loops and forks
// repeated once).
func (g *Grammar) MinExpansion(name string) int { return g.minExpand[name] }

// MinRunSize returns the minimum number of vertices in any run of this
// grammar.
func (g *Grammar) MinRunSize() int {
	gg := g.spec.graphs[StartGraph].G
	sum := 0
	for v := 0; v < gg.NumVertices(); v++ {
		name := gg.Name(graph.VertexID(v))
		if g.spec.kinds[name].Composite() {
			sum += g.minExpand[name]
		} else {
			sum++
		}
	}
	return sum
}

// TotalVertices returns Σ|V(h)| over G(S) — the paper's n_G.
func (g *Grammar) TotalVertices() int { return g.totalVertices }

// PointerBits returns the width of a skeleton-label pointer:
// ⌈log₂ n_G⌉ bits (Theorem 3's accounting).
func (g *Grammar) PointerBits() int {
	return bitsFor(g.totalVertices)
}

// bitsFor returns ⌈log₂ n⌉ for n ≥ 1 (and 1 for n ≤ 2).
func bitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

// Productions renders the grammar's finite production seeds in the
// style of Figure 4, for documentation and debugging. Pumped loop and
// fork productions are indicated with "…".
func (g *Grammar) Productions() []string {
	var out []string
	for _, name := range g.spec.CompositeNames() {
		var bodies []string
		for _, id := range g.spec.impls[name] {
			bodies = append(bodies, g.spec.graphs[id].Label)
		}
		rhs := strings.Join(bodies, " | ")
		switch g.spec.kinds[name] {
		case Loop:
			rhs += " | S(h,h) | …"
		case Fork:
			rhs += " | P(h,h) | …"
		}
		out = append(out, fmt.Sprintf("%s := %s", name, rhs))
	}
	sort.Strings(out)
	return out
}
