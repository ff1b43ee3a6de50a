package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// issuedLabels labels runs of BioAID, the agent grammar, seeded random
// linear and nonlinear grammars and the Figure 13 family at sub-workflow
// size 160 with both labelers in both R modes, and calls check on every
// label issued, with the run and the labeler's skeleton.
func issuedLabels(t *testing.T, check func(name string, r *run.Run, skel *skeleton.Scheme, labels map[graph.VertexID]label.Label)) {
	t.Helper()
	runs := map[string]*run.Run{
		"BioAID":       gen.MustGenerate(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 2000, Seed: 1}),
		"synthetic160": gen.MustGenerate(spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 160, Depth: 5, RecModules: 1, Seed: 160})), gen.Options{TargetSize: 2000, Seed: 2}),
	}
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runs["agent"] = tr.Run
	for seed := int64(0); seed < 6; seed++ {
		p := wfspecs.RandomParams{Plain: 1 + int(seed%3), Loops: 1, Forks: 1 + int(seed%2),
			RecursionLen: int(seed % 4), MaxGraphSize: 5 + int(seed%5), Seed: seed*7919 + 1}
		runs[fmt.Sprintf("linear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(p)), gen.Options{TargetSize: 300, Seed: seed})
		p = wfspecs.RandomParams{Plain: int(seed % 3), Loops: int(seed % 2), Forks: int(seed % 2),
			RecursionLen: 1 + int(seed%3), NonlinearRec: true, MaxGraphSize: 6, Seed: seed * 509}
		runs[fmt.Sprintf("nonlinear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(p)), gen.Options{TargetSize: 150, Seed: seed, DepthFirst: seed%2 == 0})
	}
	for name, r := range runs {
		evs, err := r.Execution(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
			d, err := core.LabelRun(r, skeleton.TCL, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			labels := make(map[graph.VertexID]label.Label)
			for _, v := range r.Graph.LiveVertices() {
				labels[v] = d.MustLabel(v)
			}
			check(fmt.Sprintf("%s, derivation labeler, %v", name, mode), r, d.Skeleton(), labels)
			e, err := core.LabelExecution(r.Grammar, evs, skeleton.TCL, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			labels = make(map[graph.VertexID]label.Label)
			for _, ev := range evs {
				labels[ev.V] = e.MustLabel(ev.V)
			}
			check(fmt.Sprintf("%s, execution labeler, %v", name, mode), r, e.Skeleton(), labels)
		}
	}
}

// TestOriginIsTheNextSlot: an encoded N entry leaves out only what the
// grammar implies. On every label issued, an interior N entry's origin
// is the composite vertex the next entry's index ranks, and every N
// entry's graph is one its context allows: g0 at the root, an
// implementation of the slot its parent expands below an N, L or F node,
// an implementation of a module in that slot's recursion SCC below an R
// node. The context sets are worked out here from the specification and
// held against the grammar's tables.
func TestOriginIsTheNextSlot(t *testing.T) {
	issuedLabels(t, func(name string, r *run.Run, _ *skeleton.Scheme, labels map[graph.VertexID]label.Label) {
		for v, l := range labels {
			if err := originsImplied(r.Grammar, l); err != nil {
				t.Fatalf("%s, vertex %d: %v", name, v, err)
			}
		}
	})
}

// originsImplied walks l from the root, checking each N entry against
// the context the entries above it set.
func originsImplied(g *spec.Grammar, l label.Label) error {
	allowed := []spec.GraphID{spec.StartGraph}
	tables := g.RootChoices()
	for i, e := range l.Entries {
		if i > 0 && l.Entries[i-1].Type == label.N {
			above := l.Entries[i-1].Skl
			slots := composites(g, above.Graph)
			if int(e.Index) >= len(slots) || slots[e.Index] != above.V {
				return fmt.Errorf("%s: entry %d has origin g%d:%d, but the next index %d ranks none of g%d's composites %v there", l, i-1, above.Graph, above.V, e.Index, above.Graph, slots)
			}
			allowed = contextGraphs(g, above, e.Type == label.R)
			slot, _ := g.Slot(above.Graph, e.Index)
			tables = slot.Choices(e.Type == label.R)
		}
		var listed []spec.GraphID
		for k := 0; ; k++ {
			id, ok := g.ChoiceGraph(tables, k)
			if !ok {
				break
			}
			listed = append(listed, id)
		}
		if !slices.Equal(listed, allowed) {
			return fmt.Errorf("%s: entry %d's choice set is %v, the specification allows %v", l, i, listed, allowed)
		}
		if e.Type == label.N && !slices.Contains(allowed, e.Skl.Graph) {
			return fmt.Errorf("%s: entry %d is an instance of g%d, which its context %v does not allow", l, i, e.Skl.Graph, allowed)
		}
	}
	return nil
}

// contextGraphs returns the graphs a child expanding slot u may be an
// instance of: u's implementations, or as a chain member those of every
// module in u's recursion SCC — in id order, from the specification.
func contextGraphs(g *spec.Grammar, u spec.VertexRef, chain bool) []spec.GraphID {
	s := g.Spec()
	name := s.Graph(u.Graph).G.Name(u.V)
	if !chain {
		return s.Implementations(name)
	}
	var out []spec.GraphID
	for _, ng := range s.Graphs()[1:] {
		if induces(s, name, ng.Owner) && induces(s, ng.Owner, name) {
			out = append(out, ng.ID)
		}
	}
	return out
}

// induces reports a ↦* b: b is a or is named in an expansion of a.
func induces(s *spec.Spec, a, b string) bool {
	seen := map[string]bool{a: true}
	for queue := []string{a}; len(queue) > 0; queue = queue[1:] {
		for _, id := range s.Implementations(queue[0]) {
			gg := s.Graph(id).G
			for v := range gg.NumVertices() {
				if n := gg.Name(graph.VertexID(v)); !seen[n] {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
	}
	return seen[b]
}

// TestBitLenUnderAlgorithm1: on the same labels, BitLen is strictly
// below Algorithm 1's accounting (algorithm1Bits) — by at least a bit
// per entry, since a type bit is stored only where a slot leaves R or
// N open and never the root's index — every label decodes to itself,
// and π on the bytes, π on the labels and breadth-first search agree on
// sampled pairs.
func TestBitLenUnderAlgorithm1(t *testing.T) {
	issuedLabels(t, func(name string, r *run.Run, skel *skeleton.Scheme, labels map[graph.VertexID]label.Label) {
		g := r.Grammar
		codec := label.NewCodec(g)
		enc := make(map[graph.VertexID][]byte, len(labels))
		var vs []graph.VertexID
		for v, l := range labels {
			bits, ref := codec.BitLen(l), algorithm1Bits(g, l)
			if bits > ref-l.Len() {
				t.Fatalf("%s, vertex %d: BitLen %d, Algorithm 1 accounts %d for %s", name, v, bits, ref, l)
			}
			enc[v] = codec.Encode(l)
			if dec, err := codec.Decode(enc[v]); err != nil || !dec.Equal(l) {
				t.Fatalf("%s, vertex %d: %s decodes to %s, %v", name, v, l, dec, err)
			}
			vs = append(vs, v)
		}
		slices.Sort(vs)
		rng := rand.New(rand.NewSource(int64(len(vs))))
		for _, u := range vs {
			for range 4 {
				w := vs[rng.Intn(len(vs))]
				want := r.Graph.Reaches(u, w)
				got, err := core.PiBytes(codec, skel, enc[u], enc[w])
				if err != nil || got != want || core.Pi(skel, labels[u], labels[w]) != want {
					t.Fatalf("%s: π(%d,%d): PiBytes %v, %v; Pi %v; BFS %v", name, u, w, got, err, core.Pi(skel, labels[u], labels[w]), want)
				}
			}
		}
	})
}
