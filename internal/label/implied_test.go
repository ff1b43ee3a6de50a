package label_test

import (
	"fmt"
	"math/bits"
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

// issued labels runs of BioAID, the agent grammar and random linear and
// nonlinear grammars with both labelers in both R modes, and calls check
// on every run vertex's label.
func issued(t *testing.T, check func(name string, g *spec.Grammar, mode core.RMode, l label.Label)) {
	t.Helper()
	runs := map[string]*run.Run{
		"BioAID": gen.MustGenerate(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 1500, Seed: 5}),
	}
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 1500, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	runs["agent"] = tr.Run
	for seed := int64(0); seed < 6; seed++ {
		runs[fmt.Sprintf("linear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: 1 + int(seed%3), Loops: 1, Forks: 1, RecursionLen: int(seed % 4), MaxGraphSize: 7, Seed: seed*7919 + 3,
		})), gen.Options{TargetSize: 200, Seed: seed})
		runs[fmt.Sprintf("nonlinear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: int(seed % 3), Loops: 1, Forks: int(seed % 2), RecursionLen: 1 + int(seed%3), NonlinearRec: true, MaxGraphSize: 6, Seed: seed * 311,
		})), gen.Options{TargetSize: 150, Seed: seed, DepthFirst: seed%2 == 0})
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
			for _, v := range r.Graph.LiveVertices() {
				check(fmt.Sprintf("%s, derivation labeler, %v", name, mode), r.Grammar, mode, d.MustLabel(v))
			}
			e, err := core.LabelExecution(r.Grammar, evs, skeleton.TCL, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			for _, ev := range evs {
				check(fmt.Sprintf("%s, execution labeler, %v", name, mode), r.Grammar, mode, e.MustLabel(ev.V))
			}
		}
	}
}

// TestLabelsStoreOnlyWhatTheGrammarLeavesOpen is the oracle for the
// fields a label no longer stores. On every label issued: each entry's
// type is the one the specification implies — N at the root and below
// an L, F or R entry, and below an N entry L for a loop module's slot, F
// for a fork's, R or N for a plain module with an implementation that
// has a designated recursive vertex (R only when the labeler compresses
// recursion) and N for any other — and the one a cursor derives from the
// bytes; the label decodes to itself; and its encoding is exactly the
// WFSNAP07 layout's less the bits it no longer stores — the root's
// index code, the 2 type bits of every entry but the one bit an open
// slot keeps, and below an R entry the presence bit and the 2 flags —
// before padding, and BitLen likewise Algorithm 1's accounting less
// those fields.
func TestLabelsStoreOnlyWhatTheGrammarLeavesOpen(t *testing.T) {
	codecs := make(map[*spec.Grammar]*label.Codec)
	open := 0
	issued(t, func(name string, g *spec.Grammar, mode core.RMode, l label.Label) {
		c := codecs[g]
		if c == nil {
			c = label.NewCodec(g)
			codecs[g] = c
		}
		enc := c.Encode(l)
		if dec, err := c.Decode(enc); err != nil || !dec.Equal(l) {
			t.Fatalf("%s: %s decodes to %s, %v", name, l, dec, err)
		}
		var cu label.Cursor
		if err := cu.Reset(c, enc); err != nil {
			t.Fatal(err)
		}
		// Each layout's length, and what the new one drops from it: the
		// type bits and the root's index in both, and below an R entry
		// the presence bit and flags on the wire, the 2 flag bits
		// Algorithm 1 accounts.
		wire07, bits07 := 2*bits.Len(uint(l.Len()+2))-2, 0
		wireDropped, bitsDropped := 1, 1 // the root's index 0: a 1-bit code, 1 value bit
		for i, e := range l.Entries {
			var y label.Entry
			if _, err := cu.Next(&y); err != nil || y.Type != e.Type {
				t.Fatalf("%s: %s: the cursor derives entry %d's type as %s, %v", name, l, i, y.Type, err)
			}
			want, keep := impliedType(g, l, i)
			types := 2
			switch {
			case keep && (e.Type == label.N || e.Type == label.R && mode == core.RModeDesignated):
				open++
				types--
			case keep || e.Type != want:
				t.Fatalf("%s: %s: entry %d is an %s entry where the specification implies %s", name, l, i, e.Type, want)
			}
			field := fieldBits(g, l, i)
			wire07 += 2 + 2*bits.Len(uint(e.Index)+1) - 1 + field
			bits07 += 2 + max(1, bits.Len32(uint32(e.Index))) + field
			wireDropped += types
			bitsDropped += types
			if i > 0 && l.Entries[i-1].Type == label.R {
				flags := 0
				if g.Designated(e.Skl.Graph) != graph.None {
					flags = 2
				}
				wire07 += 1 + flags
				wireDropped += 1 + flags
				bits07 += 2
				bitsDropped += 2
			}
		}
		if got := c.WireBits(l); got != wire07-wireDropped || c.EncodedLen(l) != (got+7)/8 {
			t.Fatalf("%s: %s: %d bits (%d bytes); the WFSNAP07 layout's %d less the %d dropped is %d", name, l, got, c.EncodedLen(l), wire07, wireDropped, wire07-wireDropped)
		}
		if got := c.BitLen(l); got != bits07-bitsDropped {
			t.Fatalf("%s: %s: BitLen %d; the WFSNAP07 accounting's %d less the %d dropped is %d", name, l, got, bits07, bitsDropped, bits07-bitsDropped)
		}
	})
	if open == 0 {
		t.Fatal("no entry kept a type bit: the corpus lost its recursion")
	}
}

// impliedType returns the type the specification implies for entry i of
// l, and whether it leaves R or N open there instead.
func impliedType(g *spec.Grammar, l label.Label, i int) (label.NodeType, bool) {
	if i == 0 || l.Entries[i-1].Type != label.N {
		return label.N, false
	}
	above := l.Entries[i-1].Skl
	name := g.Spec().Graph(above.Graph).G.Name(vertices(g, above.Graph, true)[l.Entries[i].Index])
	switch g.Spec().Kind(name) {
	case spec.Loop:
		return label.L, false
	case spec.Fork:
		return label.F, false
	}
	return label.N, opensChain(g, name)
}

// fieldBits returns the width of entry i's choice or leaf field,
// counted from the specification: none for an L, F or R entry, ⌈log₂⌉
// of the graphs its context allows for an interior N entry, of their
// atomic vertices for the last.
func fieldBits(g *spec.Grammar, l label.Label, i int) int {
	e := l.Entries[i]
	if e.Type != label.N {
		return 0
	}
	set := g.RootChoices()
	for k := 1; k <= i; k++ {
		if above := l.Entries[k-1]; above.Type == label.N {
			slot, _ := g.Slot(above.Skl.Graph, l.Entries[k].Index)
			set = slot.Choices(l.Entries[k].Type == label.R)
		}
	}
	n := 0
	for _, id := range choiceGraphs(g, set) {
		if i < l.Len()-1 {
			n++
		} else {
			n += len(vertices(g, id, false))
		}
	}
	return bits.Len(uint(n - 1))
}
