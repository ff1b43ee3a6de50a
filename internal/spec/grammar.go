package spec

import (
	"fmt"
	"math"
	"math/bits"
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
	sets      []int32                    // the choice sets' graphs and atom counts (see ChoiceSet)
	root      ChoiceSet                  // the root's choice set: g0 alone
	class     Class
	minExpand map[string]int // per composite name: min atomic vertices of a full expansion

	totalVertices int
}

// graphFacts is what the labelers and the label codec look up about one
// specification graph each time they expand or name one of its vertices.
type graphFacts struct {
	designated graph.VertexID // compressed recursive vertex or None
	// rank[v] is v's 0-based rank in vertex order among the graph's
	// composite vertices (its slot rank), or ^r for an atomic v of rank r
	// among the atomic ones.
	rank []int32
	// atoms lists the atomic vertices by rank.
	atoms []int32
	// slots holds three words per composite vertex, by slot rank: the
	// vertex shifted left two bits over its SlotType, then the choice
	// sets of the child that expands it under an N, L or F node and as a
	// recursion-chain member under an R node.
	slots []int32
	// rankBits and rankShort shape the code of a slot rank (Slots):
	// b = ⌊log₂ k⌋ for the graph's k slots, and the u = 2^(b+1) − k ranks
	// that take b bits; u is 0 for a graph without slots.
	rankBits  uint8
	rankShort int32
}

// ChoiceSet names a set of specification graphs that the place of a
// parse-tree instance allows it to be annotated with: g0 for the root;
// for a child of an N, L or F node, the implementations of the slot u
// the parent expands; for a recursion-chain member, the implementations
// of every module in u's recursion SCC (the modules u's name induces and
// is induced by). A label names an interior instance's graph by its
// position in the set, an implementation choice of ChoiceBits bits, and
// a run vertex by its rank among the atomic vertices of every graph in
// the set, in LeafBits bits; both are at most ⌈log₂ n_G⌉.
//
// A ChoiceSet packs the set's two widths and its StoresLast bit, so
// that a codec reads them without a lookup, with the set's offset in its
// grammar's table, where the set is its graph count k, its k graph ids
// in ascending order, then the running totals of their atomic vertices:
//
//	offset<<11 | StoresLast<<10 | ChoiceBits<<5 | LeafBits
type ChoiceSet int32

// maxSetWords bounds a grammar's choice-set table, whose offsets a
// ChoiceSet holds in 20 bits.
const maxSetWords = 1 << 20

// storesLast is the StoresLast bit of a ChoiceSet.
const storesLast = 1 << 10

// maxGraphVertices bounds a graph's vertices, which a slot table word
// holds in 29 bits beside the slot's type.
const maxGraphVertices = 1 << 29

// RootChoices returns the choice set of the root instance: g0 alone.
func (g *Grammar) RootChoices() ChoiceSet { return g.root }

// SlotType is what the grammar fixes about the type of the parse-tree
// node that expands a slot. Its values are those of label.NodeType, with
// SlotRN standing for either of two.
type SlotType uint8

const (
	// SlotN is a plain module none of whose implementations has a
	// designated recursive vertex: the slot's child is an instance.
	SlotN SlotType = iota
	// SlotL is a loop module: its child is an L node.
	SlotL
	// SlotF is a fork module: its child is an F node.
	SlotF
	// SlotRN is a plain module with an implementation that has a
	// designated recursive vertex: its child is an R node where the
	// labeler opens a recursion chain there, and an instance otherwise.
	// A label stores which.
	SlotRN
)

// Slot is what the grammar implies about the child of an instance that
// expands one of its composite vertices: a view of the slot's three
// words in the grammar's table.
type Slot struct{ w *[3]int32 }

// noSlot is the words of NoSlot: no origin, type SlotN, no choice sets.
var noSlot = [3]int32{int32(graph.None) << 2}

// NoSlot is the slot of no composite vertex: its origin is graph.None.
func NoSlot() Slot { return Slot{&noSlot} }

// Origin returns the composite vertex: the origin, in the instance, of
// every label that descends through the child.
func (s Slot) Origin() graph.VertexID { return graph.VertexID(s.w[0] >> 2) }

// Type returns what the slot fixes about the child's type.
func (s Slot) Type() SlotType { return SlotType(s.w[0] & 3) }

// Choices returns the child's choice set: the implementations of the
// slot's module, or those of its recursion SCC when chain is set — the
// set of the members of a recursion chain below an R child.
func (s Slot) Choices(chain bool) ChoiceSet {
	if chain {
		return ChoiceSet(s.w[2])
	}
	return ChoiceSet(s.w[1])
}

// Slot returns the slot of rank rank in graph id: what the grammar
// implies about the child of that index under an instance of the graph.
// It reports false, and NoSlot, when the graph has no such slot.
func (g *Grammar) Slot(id GraphID, rank int32) (Slot, bool) {
	return g.Slots(id).At(rank)
}

// Slots is the slots of one graph, by rank, and the shape of the code
// a label stores their ranks in (RankCode).
type Slots struct {
	w     []int32
	b     uint8
	short int32
}

// Slots returns the slots of graph id.
func (g *Grammar) Slots(id GraphID) Slots {
	f := &g.graphs[id]
	return Slots{f.slots, f.rankBits, f.rankShort}
}

// RankCode returns the code a label stores slot rank r in, and its
// length: truncated binary over the k slots, the first u = 2^(b+1) − k
// ranks in b = ⌊log₂ k⌋ bits and the rest as r + u in b + 1, so none
// where k is 1.
func (t Slots) RankCode(r int32) (code uint64, n uint) {
	if r >= t.short {
		return uint64(r + t.short), uint(t.b) + 1
	}
	return uint64(r), uint(t.b)
}

// RankShape returns b and u of RankCode, for a reader; false for a
// graph without slots.
func (t Slots) RankShape() (b uint, u uint64, ok bool) {
	return uint(t.b), uint64(t.short), t.short > 0
}

// At returns the slot of rank rank, false and NoSlot when there is none.
func (t Slots) At(rank int32) (Slot, bool) {
	i := 3 * uint(uint32(rank))
	if i >= uint(len(t.w)) { // len(t.w) is a multiple of 3
		return NoSlot(), false
	}
	return Slot{(*[3]int32)(t.w[i : i+3])}, true
}

// ChoiceBits returns ⌈log₂ k⌉ for the set's k graphs: the width of an
// implementation choice.
func (c ChoiceSet) ChoiceBits() uint { return uint(c>>5) & 31 }

// LeafBits returns the width of a leaf's rank among the atomic vertices
// of the set's graphs.
func (c ChoiceSet) LeafBits() uint { return uint(c) & 31 }

// StoresLast reports whether a label stores, on an N entry of the set,
// whether the entry is its last. A label's length is known from outside
// it, so an N entry is its last where the bits left at its field are
// exactly LeafBits — unless an interior entry, with the fewest bits the
// entries below it can take, could also leave exactly that many. Where
// it could, the set stores the flag (Compile finds these sets).
func (c ChoiceSet) StoresLast() bool { return c&storesLast != 0 }

// choiceSet unpacks set c: its graph ids and the running totals of
// their atomic vertices.
func (g *Grammar) choiceSet(c ChoiceSet) (graphs, atomEnd []int32) {
	off := c >> 11
	k := ChoiceSet(g.sets[off])
	return g.sets[off+1 : off+1+k], g.sets[off+1+k : off+1+2*k]
}

// ChoiceGraph returns the graph at position i of set c, false when
// there is none.
func (g *Grammar) ChoiceGraph(c ChoiceSet, i int) (GraphID, bool) {
	graphs, _ := g.choiceSet(c)
	if uint(i) >= uint(len(graphs)) {
		return -1, false
	}
	return GraphID(graphs[i]), true
}

// Choice returns graph id's position in set c, false when it is not in
// it.
func (g *Grammar) Choice(c ChoiceSet, id GraphID) (int, bool) {
	graphs, _ := g.choiceSet(c)
	for i, x := range graphs {
		if GraphID(x) == id {
			return i, true
		}
	}
	return 0, false
}

// Leaf returns the atomic vertex of rank r among those of set c's
// graphs, false when r is out of range.
func (g *Grammar) Leaf(c ChoiceSet, r int) (VertexRef, bool) {
	graphs, atomEnd := g.choiceSet(c)
	base := int32(0)
	for i, end := range atomEnd {
		if int32(r) < end && r >= 0 {
			id := GraphID(graphs[i])
			return VertexRef{Graph: id, V: graph.VertexID(g.graphs[id].atoms[int32(r)-base])}, true
		}
		base = end
	}
	return NoRef, false
}

// LeafRank is the inverse of Leaf: false when ref is not an atomic
// vertex of a graph in set c.
func (g *Grammar) LeafRank(c ChoiceSet, ref VertexRef) (int, bool) {
	i, ok := g.Choice(c, ref.Graph)
	if !ok {
		return 0, false
	}
	rank := g.graphs[ref.Graph].rank
	if uint(ref.V) >= uint(len(rank)) || rank[ref.V] >= 0 {
		return 0, false
	}
	base := int32(0)
	if i > 0 {
		_, atomEnd := g.choiceSet(c)
		base = atomEnd[i-1]
	}
	return int(base + ^rank[ref.V]), true
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
	for i, ng := range s.graphs {
		g.totalVertices += ng.G.NumVertices()
		g.graphs[i].designated = graph.None
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
	if err := g.buildTables(); err != nil {
		return nil, err
	}
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

// buildTables fills the rank and slot tables of every graph and the
// choice sets a label's entries are coded against, all carved from one
// allocation.
func (g *Grammar) buildTables() error {
	s := g.spec
	// The root's set comes first. Each composite name has its
	// implementation set; a name whose recursion SCC holds other names
	// shares one chain set with them, keyed by the SCC's least name, and a
	// name alone in its SCC uses its implementation set as its chain set.
	type source struct {
		name  string
		chain bool
		off   int32 // where the set starts in g.sets
		size  int32
		set   ChoiceSet
	}
	names := s.CompositeNames()
	srcs := []source{{size: 1}}
	setWords := int32(1 + 2)
	add := func(src source) int {
		src.off = setWords
		setWords += 1 + 2*src.size
		srcs = append(srcs, src)
		return len(srcs) - 1
	}
	sets := make(map[string][2]int, len(names)) // indexes into srcs
	for _, a := range names {
		impl := add(source{name: a, size: int32(len(s.impls[a]))})
		chain := impl
		rep, members, size := "", 0, int32(0)
		for _, b := range names {
			if g.induces[a][b] && g.induces[b][a] {
				if members == 0 {
					rep = b // names is sorted: the SCC's least name
				}
				members++
				size += int32(len(s.impls[b]))
			}
		}
		switch {
		case rep != a:
			chain = sets[rep][1]
		case members > 1:
			chain = add(source{name: a, chain: true, size: size})
		}
		sets[a] = [2]int{impl, chain}
	}
	if setWords > maxSetWords {
		return fmt.Errorf("spec: the choice sets of %d composite modules need %d words, more than the %d a label codec addresses", len(names), setWords, maxSetWords)
	}

	total := int(setWords)
	for _, ng := range s.graphs {
		if ng.G.NumVertices() > maxGraphVertices {
			return fmt.Errorf("spec: graph %s has %d vertices, more than the %d a slot table numbers", ng.Label, ng.G.NumVertices(), maxGraphVertices)
		}
		total += 2 * ng.G.NumVertices() // rank, then atoms or slot vertices
		for v := range ng.G.NumVertices() {
			if s.kinds[ng.G.Name(graph.VertexID(v))].Composite() {
				total += 2 // a slot's choice sets
			}
		}
	}
	buf := make([]int32, total)
	carve := func(n int) []int32 {
		out := buf[:n:n]
		buf = buf[n:]
		return out
	}
	g.sets = carve(int(setWords))

	for i, ng := range s.graphs {
		f := &g.graphs[i]
		f.rank = carve(ng.G.NumVertices())
		var composites, atoms int32
		for v := range f.rank {
			if s.kinds[ng.G.Name(graph.VertexID(v))].Composite() {
				f.rank[v] = composites
				composites++
			} else {
				f.rank[v] = ^atoms
				atoms++
			}
		}
		f.atoms, f.slots = carve(int(atoms)), carve(3*int(composites))
		if composites > 0 {
			b := bits.Len32(uint32(composites)) - 1
			f.rankBits, f.rankShort = uint8(b), 1<<(b+1)-composites
		}
		for v, r := range f.rank {
			if r < 0 {
				f.atoms[^r] = int32(v)
			}
		}
	}

	for i := range srcs {
		src := &srcs[i]
		c := g.sets[src.off : src.off+1+2*src.size]
		graphs, atomEnd := c[1:1+src.size], c[1+src.size:]
		switch {
		case i == 0:
			graphs[0] = int32(StartGraph)
		case src.chain:
			k := 0
			for _, ng := range s.graphs {
				if ng.Owner != "" && g.induces[ng.Owner][src.name] && g.induces[src.name][ng.Owner] {
					graphs[k] = int32(ng.ID)
					k++
				}
			}
		default:
			for k, id := range s.impls[src.name] {
				graphs[k] = int32(id)
			}
		}
		atoms := int32(0)
		for k, id := range graphs {
			atoms += int32(len(g.graphs[id].atoms))
			atomEnd[k] = atoms
		}
		c[0] = src.size
		src.set = ChoiceSet(src.off<<11 | int32(bits.Len(uint(src.size-1)))<<5 | int32(bits.Len(uint(atoms-1))))
	}
	all := make([]ChoiceSet, len(srcs))
	for i := range srcs {
		all[i] = srcs[i].set
	}
	g.markStoresLast(all, sets)
	for i := range srcs {
		srcs[i].set = all[i]
	}
	g.root = srcs[0].set

	for i, ng := range s.graphs {
		f := &g.graphs[i]
		for v, r := range f.rank {
			if r >= 0 {
				name := ng.G.Name(graph.VertexID(v))
				ids := sets[name]
				f.slots[3*r], f.slots[3*r+1], f.slots[3*r+2] = int32(v)<<2|int32(g.slotType(name)), int32(srcs[ids[0]].set), int32(srcs[ids[1]].set)
			}
		}
	}
	return nil
}

// markStoresLast sets the StoresLast bit of the choice sets in all
// whose N entries store whether they are a label's last: those where an
// interior entry's choice and the fewest bits the entries below it can
// take come to no more than the leaf width. slots names each composite
// module's implementation and chain sets by their place in all. The
// fewest bits are a shortest path, relaxed to a fixed point as
// computeMinExpand's is: tail[c], the fewest an N entry of set c stores
// from its field on, is its leaf width, or its choice width plus
// below[h] for a graph h of c; below[h], the fewest the entries under an
// interior instance of h store, is the least over h's slots of the slot
// rank's code (Slots.RankCode) plus what the slot's child stores: a type
// bit where the slot leaves R or N open, a copy or chain position below
// an L, F or R node — at least one bit, whatever its code — and then
// tail of the set of the instance below. The flags themselves are left
// out of the sums, which only makes the test more cautious.
func (g *Grammar) markStoresLast(all []ChoiceSet, slots map[string][2]int) {
	const inf = math.MaxInt32 / 2
	buf := make([]int, len(all)+len(g.graphs))
	tail, below := buf[:len(all)], buf[len(all):]
	for i, c := range all {
		tail[i] = int(c.LeafBits())
	}
	for i := range below {
		below[i] = inf
	}
	// interior is the fewest bits an interior N entry of set c and the
	// entries below it store from its field on.
	interior := func(c ChoiceSet) int {
		graphs, _ := g.choiceSet(c)
		least := inf
		for _, id := range graphs {
			least = min(least, below[id])
		}
		return int(c.ChoiceBits()) + least
	}
	for changed := true; changed; {
		changed = false
		for id, ng := range g.spec.graphs {
			f, code := &g.graphs[id], g.Slots(GraphID(id))
			for v, r := range f.rank {
				if r < 0 {
					continue
				}
				name := ng.G.Name(graph.VertexID(v))
				impl, chain := tail[slots[name][0]], tail[slots[name][1]]
				var child int
				switch g.slotType(name) {
				case SlotN:
					child = impl
				case SlotL, SlotF:
					child = 1 + impl
				case SlotRN:
					child = 1 + min(impl, 1+chain)
				}
				if _, n := code.RankCode(r); int(n)+child < below[id] {
					below[id] = int(n) + child
					changed = true
				}
			}
		}
		for i, c := range all {
			if n := interior(c); n < tail[i] {
				tail[i] = n
				changed = true
			}
		}
	}
	for i, c := range all {
		if interior(c) <= int(c.LeafBits()) {
			all[i] |= storesLast
		}
	}
}

// slotType is what composite name fixes about the node that expands
// one of its vertices: the labelers make an L node for a loop module, an
// F node for a fork module, and an R node for a plain module only where
// the chosen implementation has a designated recursive vertex.
func (g *Grammar) slotType(name string) SlotType {
	switch g.spec.kinds[name] {
	case Loop:
		return SlotL
	case Fork:
		return SlotF
	}
	for _, id := range g.spec.impls[name] {
		if g.graphs[id].designated != graph.None {
			return SlotRN
		}
	}
	return SlotN
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
// vertices of graph id, in vertex order, and a negative number for an
// atomic v. It is the index of the parse-tree child that expands v under
// its instance, so those indexes cost the log θ_t bits Algorithm 1
// budgets for them.
func (g *Grammar) SlotRank(id GraphID, v graph.VertexID) int32 { return g.graphs[id].rank[v] }

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
