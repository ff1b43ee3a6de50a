package label_test

import (
	"bytes"
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
// WFSNAP07 layout's less the bits WFSNAP08 no longer stored — the root's
// index code, the 2 type bits of every entry but the one bit an open
// slot keeps, and below an R entry the presence bit and the 2 flags —
// and less what WFSNAP09 no longer stores — the entry count's code, and
// each order-0 index code, which its slot rank's or position's code
// replaces — plus a last flag on each N entry whose set stores one and
// the stop bit, before padding. BitLen is likewise Algorithm 1's
// accounting less the fields WFSNAP08 dropped.
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
		count := 2*bits.Len(uint(l.Len()+2)) - 2
		wire07, bits07 := count, 0
		wireDropped, bitsDropped := 1, 1 // the root's index 0: a 1-bit code, 1 value bit
		wire09 := -count + 1             // no count, a stop bit
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
			if i > 0 {
				wire09 += indexCode(g, l, i) - (2*bits.Len(uint(e.Index)+1) - 1)
			}
			if e.Type == label.N && setAt(g, l, i).StoresLast() {
				wire09++
			}
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
		if want := wire07 - wireDropped + wire09; c.WireBits(l)+1 != want || c.EncodedLen(l) != (want+7)/8 {
			t.Fatalf("%s: %s: %d bits and the stop bit (%d bytes); the WFSNAP07 layout's %d less the %d WFSNAP08 dropped, %+d in WFSNAP09, is %d", name, l, c.WireBits(l), c.EncodedLen(l), wire07, wireDropped, wire09, want)
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
	n := 0
	for _, id := range choiceGraphs(g, setAt(g, l, i)) {
		if i < l.Len()-1 {
			n++
		} else {
			n += len(vertices(g, id, false))
		}
	}
	return bits.Len(uint(n - 1))
}

// setAt returns the choice set of entry i of l: what the entries above
// it allow.
func setAt(g *spec.Grammar, l label.Label, i int) spec.ChoiceSet {
	set := g.RootChoices()
	for k := 1; k <= i; k++ {
		if above := l.Entries[k-1]; above.Type == label.N {
			slot, _ := g.Slot(above.Skl.Graph, l.Entries[k].Index)
			set = slot.Choices(l.Entries[k].Type == label.R)
		}
	}
	return set
}

// indexCode returns the length of entry i's index code, i > 0, counted
// from the specification: below an N entry, the slot rank's truncated
// binary code among the composite vertices of that entry's graph;
// below an L, F or R entry, the position's Exp-Golomb code of its order.
func indexCode(g *spec.Grammar, l label.Label, i int) int {
	above, x := l.Entries[i-1], int(l.Entries[i].Index)
	if above.Type != label.N {
		k := positionOrders[above.Type]
		return 2*bits.Len(uint(x+1<<k)) - k - 1
	}
	n := len(vertices(g, above.Skl.Graph, true))
	b := 0
	for 1<<(b+1) <= n {
		b++
	}
	if x < 1<<(b+1)-n {
		return b
	}
	return b + 1
}

// TestCutAndFlippedLabelsAreLabelsOrErrors: a label does not store its
// length, so the bytes a reader is given decide where it ends. Every
// proper prefix of every issued label's encoding, and the encoding with
// any one bit flipped, is an error or a valid label — one that encodes
// to exactly those bytes — and never a panic; and a cursor over it
// yields at most MaxEntries entries.
func TestCutAndFlippedLabelsAreLabelsOrErrors(t *testing.T) {
	codecs := make(map[*spec.Grammar]*label.Codec)
	type key struct {
		c    *label.Codec
		data string
	}
	seen, done := make(map[key]bool), make(map[key]bool)
	labels, other := 0, 0
	check := func(name string, c *label.Codec, data []byte) {
		if seen[key{c, string(data)}] {
			return
		}
		seen[key{c, string(data)}] = true
		var cu label.Cursor
		if cu.Reset(c, data) == nil {
			n := 0
			for {
				var e label.Entry
				ok, err := cu.Next(&e)
				if !ok || err != nil {
					break
				}
				if n++; n > label.MaxEntries {
					t.Fatalf("%s: %x: a cursor yields more than %d entries", name, data, label.MaxEntries)
				}
			}
		}
		dec, err := c.Decode(data)
		if err != nil {
			return
		}
		if enc := c.Encode(dec); !bytes.Equal(enc, data) {
			t.Fatalf("%s: %x decodes to %s, which encodes to %x", name, data, dec, enc)
		}
		other++
	}
	issued(t, func(name string, g *spec.Grammar, _ core.RMode, l label.Label) {
		c := codecs[g]
		if c == nil {
			c = label.NewCodec(g)
			codecs[g] = c
		}
		enc := c.Encode(l)
		if done[key{c, string(enc)}] {
			return
		}
		done[key{c, string(enc)}] = true
		labels++
		for cut := range len(enc) {
			check(name, c, enc[:cut])
		}
		flipped := bytes.Clone(enc)
		for bit := range 8 * len(enc) {
			flipped[bit/8] ^= 0x80 >> (bit % 8)
			check(name, c, flipped)
			flipped[bit/8] ^= 0x80 >> (bit % 8)
		}
	})
	t.Logf("%d labels; %d distinct cut or flipped encodings decode to another label", labels, other)
	if other == 0 {
		t.Fatal("no cut or flip decoded: the check is vacuous")
	}
}
