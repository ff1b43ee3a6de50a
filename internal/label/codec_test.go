package label_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// refEncode is the reference the production writer must match byte for
// byte: the format written down one bit at a time, with the codes'
// lengths, where a slot leaves the type open, a graph's place in its
// choice set and a vertex's rank among the set's atomic vertices found
// by counting rather than by math/bits and the grammar's slot and rank
// tables.
func refEncode(g *spec.Grammar, l label.Label) []byte { return refEncodeWith(g, l, nil) }

// refEncodeWith is refEncode with the choice or leaf field of the
// entries named in field replaced by the value given.
func refEncodeWith(g *spec.Grammar, l label.Label, field map[int]uint64) []byte {
	var w refBitWriter
	w.expGolomb(uint64(len(l.Entries)), 1)
	set := g.RootChoices()
	for i, e := range l.Entries {
		if i > 0 {
			w.expGolomb(uint64(e.Index), 0)
		}
		if i > 0 && l.Entries[i-1].Type == label.N {
			above := l.Entries[i-1].Skl.Graph
			slot, _ := g.Slot(above, e.Index)
			set = slot.Choices(e.Type == label.R)
			if opensChain(g, g.Spec().Graph(above).G.Name(vertices(g, above, true)[e.Index])) {
				w.write(b2u(e.Type == label.R), 1)
			}
		}
		if e.Type == label.N {
			// The field and the number of values it has: the graph's
			// place in the set, or the vertex's among the set's atomic
			// vertices for the last entry.
			var v, n uint64
			for _, id := range choiceGraphs(g, set) {
				if i < len(l.Entries)-1 {
					if id == e.Skl.Graph {
						v = n
					}
					n++
					continue
				}
				for _, a := range vertices(g, id, false) {
					if id == e.Skl.Graph && a == e.Skl.V {
						v = n
					}
					n++
				}
			}
			if f, ok := field[i]; ok {
				v = f
			}
			width := 0
			for 1<<width < n {
				width++
			}
			w.write(v, width)
		}
	}
	return w.buf
}

// opensChain reports whether a slot of the named module leaves its
// child's type open: a plain module one of whose implementations has a
// designated recursive vertex, whose child is an R node or an instance.
func opensChain(g *spec.Grammar, name string) bool {
	if g.Spec().Kind(name) != spec.Plain {
		return false
	}
	for _, id := range g.Spec().Implementations(name) {
		if g.Designated(id) != graph.None {
			return true
		}
	}
	return false
}

// choiceGraphs lists the graphs of a choice set in order.
func choiceGraphs(g *spec.Grammar, set spec.ChoiceSet) []spec.GraphID {
	var out []spec.GraphID
	for k := 0; ; k++ {
		id, ok := g.ChoiceGraph(set, k)
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// vertices returns graph id's composite or atomic vertices in vertex
// order.
func vertices(g *spec.Grammar, id spec.GraphID, composite bool) []graph.VertexID {
	gg := g.Spec().Graph(id).G
	var out []graph.VertexID
	for v := range gg.NumVertices() {
		if g.Spec().Kind(gg.Name(graph.VertexID(v))).Composite() == composite {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type refBitWriter struct {
	buf  []byte
	nbit uint
}

// expGolomb writes x's order-k Exp-Golomb code: as many zero bits as
// x + 2^k has bits after its leading one beyond k, then x + 2^k.
func (w *refBitWriter) expGolomb(x uint64, k int) {
	x += 1 << k
	width := 0
	for v := x; v > 0; v >>= 1 {
		width++
	}
	w.write(0, width-k-1)
	w.write(x, width)
}

func (w *refBitWriter) write(v uint64, bits int) {
	for i := bits - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 == 1 {
			w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit%8)
		}
		w.nbit++
	}
}

// corpus labels real executions of the grammars the service is run
// with: BioAID, the agent grammar, and random linear and nonlinear
// ones (deep labels, every node type, recursion chains).
func corpus(t testing.TB) map[*spec.Grammar][]label.Label {
	t.Helper()
	out := make(map[*spec.Grammar][]label.Label)
	add := func(s *spec.Spec, mode core.RMode, size int, seed int64, deep bool) {
		g := spec.MustCompile(s)
		r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: seed, DepthFirst: deep})
		d, err := core.LabelRun(r, skeleton.TCL, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Graph.LiveVertices() {
			if l := d.MustLabel(v); l.Len() <= label.MaxEntries {
				out[g] = append(out[g], l)
			}
		}
	}
	add(wfspecs.BioAID(), core.RModeDesignated, 600, 1, false)
	add(wfspecs.Agent(), core.RModeDesignated, 600, 2, false)
	for seed := int64(0); seed < 6; seed++ {
		add(wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: 2, Loops: 1, Forks: 1, RecursionLen: int(seed % 4), MaxGraphSize: 7, Seed: seed * 1013,
		}), core.RModeDesignated, 150, seed, false)
		add(wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: 1, Loops: 1, Forks: 1, RecursionLen: 1 + int(seed%3), NonlinearRec: true, MaxGraphSize: 6, Seed: seed * 509,
		}), core.RMode(seed%2), 150, seed, seed%2 == 0)
	}
	return out
}

// indexTable is the index-code table: the shortest codes, the first of
// each longer class, the last index whose code a reader takes straight
// from its window and the first it does not, and the widths where shifts go
// wrong first — 2³⁰ and 2³¹−1, whose 63-bit code is longer than the
// reader's refill.
var indexTable = []int32{0, 1, 2, 3, 6, 7, 1<<15 - 2, 1<<15 - 1, 1 << 30, 1<<31 - 1}

// TestEncodeMatchesReferenceWriter: the word-at-a-time writer must be
// byte-identical to the bit-at-a-time one on the whole corpus, on the
// index table and on the deepest label; its length pass must agree with
// it, decoding must give the label back, and encoding in place must
// write every byte of the extent it is given.
func TestEncodeMatchesReferenceWriter(t *testing.T) {
	labels := corpus(t)
	g := spec.MustCompile(wfspecs.RunningExample())
	for _, idx := range indexTable {
		// A loop copy, a fork copy and a chain member at this index,
		// down to s3 of an h3 instance.
		labels[g] = append(labels[g], label.Label{}.
			Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
			Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
			Append(label.Entry{Index: idx, Type: label.N, Skl: ref(1, 1)}).
			Append(label.Entry{Index: 0, Type: label.F, Skl: spec.NoRef}).
			Append(label.Entry{Index: idx, Type: label.N, Skl: ref(2, 1)}).
			Append(label.Entry{Index: 0, Type: label.R, Skl: spec.NoRef}).
			Append(label.Entry{Index: idx, Type: label.N, Skl: ref(3, 0)}))
	}
	labels[g] = append(labels[g], deepLabel(label.MaxEntries))
	n := 0
	for g, ls := range labels {
		c := label.NewCodec(g)
		for _, l := range ls {
			got, want := c.Encode(l), refEncode(g, l)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Encode = %x, reference writer = %x", l, got, want)
			}
			if c.EncodedLen(l) != len(want) || c.EncodedBits(l) != 8*len(want) {
				t.Fatalf("%s: EncodedLen = %d, encoding has %d bytes", l, c.EncodedLen(l), len(want))
			}
			// In place, over whatever the reserved extent held.
			into := bytes.Repeat([]byte{0xff}, c.EncodedLen(l))
			if c.EncodeInto(into, l); !bytes.Equal(into, want) {
				t.Fatalf("%s: EncodeInto over a dirty buffer = %x, reference writer = %x", l, into, want)
			}
			dec, err := c.Decode(got)
			if err != nil || !dec.Equal(l) {
				t.Fatalf("%s: decodes to %s, %v", l, dec, err)
			}
			n++
		}
	}
	if n < 2000 {
		t.Fatalf("corpus shrank to %d labels", n)
	}
}

// refusal is an encoding of RunningExample that holds one value the
// grammar does not, at entry bad; the entries before it are those of
// label, whose encoding it otherwise is.
type refusal struct {
	data  []byte
	label label.Label
	bad   int
}

// refusals are the values a cursor refuses although their codes are
// whole: an implementation choice past its set, an index past the
// composite vertices of the instance above, a leaf rank past its set's
// atomic vertices. Each is followed by two zero bytes, so that what
// fails is the value and not the length.
func refusals(g *spec.Grammar) map[string]refusal {
	// Down to the A slot of the first fork copy, then the R node
	// expanding it: the chain set is h3, h4 and h6 (a 2-bit choice) with
	// six atomic vertices (a 3-bit leaf rank).
	chain := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(1, 1)}).
		Append(label.Entry{Index: 0, Type: label.F, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(2, 1)}).
		Append(label.Entry{Index: 0, Type: label.R, Skl: spec.NoRef})
	interior := chain.
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 1)}).
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(5, 0)})
	leaf := chain.Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 0)})
	var w refBitWriter
	w.expGolomb(2, 1) // the root stores nothing: g0 alone, at index 0
	w.expGolomb(1, 0) // g0's one composite vertex has rank 0
	root := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(1, 0)})
	return map[string]refusal{
		"choice past its set":    {append(refEncodeWith(g, interior, map[int]uint64{6: 3}), 0, 0), interior, 6},
		"index past the slots":   {append(w.buf, 0, 0), root, 1},
		"leaf rank past its set": {append(refEncodeWith(g, leaf, map[int]uint64{6: 7}), 0, 0), leaf, 6},
	}
}

// TestDecodeRefusesOutOfRangeCodes: a well-formed code for a value the
// format cannot hold — an index past 2³¹−1, a count past MaxEntries, a
// prefix longer than either's longest code, an implementation choice,
// slot index or leaf rank the grammar does not hold — is an error, not
// a truncation and not a wrapped value.
func TestDecodeRefusesOutOfRangeCodes(t *testing.T) {
	c := codec(t)
	var w refBitWriter
	w.expGolomb(2, 1)
	w.expGolomb(1<<31, 0)
	w.write(0, 16)
	overIndex := w.buf
	w = refBitWriter{}
	w.expGolomb(label.MaxEntries+1, 1)
	w.write(0, 16)
	overCount := w.buf
	cases := map[string][]byte{
		"index 2^31":            overIndex,
		"count MaxEntries+1":    overCount,
		"index prefix too long": {0x40, 0, 0, 0, 0, 0, 0, 0, 0},
		"count prefix too long": {0, 0x80, 0, 0},
	}
	for name, r := range refusals(spec.MustCompile(wfspecs.RunningExample())) {
		cases[name] = r.data
	}
	for name, data := range cases {
		if _, err := c.Decode(data); err == nil || errors.Is(err, label.ErrTruncated) {
			t.Errorf("%s (%x): %v", name, data, err)
		}
	}
}

// TestEncodedLenOnBioAID pins the stored size of a label on a fixed-seed
// BioAID run, the grammar the restore benchmark snapshots: 7.27 bytes
// here (7.84 on the benchmark's 200k-event stream).
func TestEncodedLenOnBioAID(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	evs, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 20000, Seed: 1, MaxCopies: 64})
	if err != nil {
		t.Fatal(err)
	}
	lab := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	c := label.NewCodec(g)
	total := 0
	for _, ev := range evs {
		l, err := lab.Insert(ev)
		if err != nil {
			t.Fatal(err)
		}
		total += c.EncodedLen(l)
	}
	if mean := float64(total) / float64(len(evs)); mean > 5.35 {
		t.Fatalf("mean encoded label is %.3f bytes, want ≤ 5.35", mean)
	}
}

// TestEncodeAllocatesOnce pins the length pass: one allocation, of
// exactly the encoded size.
func TestEncodeAllocatesOnce(t *testing.T) {
	ls, c := benchLabels(64)
	for _, l := range ls {
		if allocs := testing.AllocsPerRun(20, func() { c.Encode(l) }); allocs != 1 {
			t.Fatalf("Encode of %s: %v allocations, want 1", l, allocs)
		}
		if enc := c.Encode(l); cap(enc) != len(enc) {
			t.Fatalf("Encode of %s: %d bytes in a %d-byte buffer", l, len(enc), cap(enc))
		}
	}
}

// deepLabel builds an n-entry label (n ≥ 6) of RunningExample, the
// shape a nonlinear recursion produces without R nodes: the first fork
// copy's A slot, then instances of h3 = s3 → B → C → t3 and h6 = s6 → A
// → t6 expanding each other's C and A slots in turn, down to an s3 or s6.
func deepLabel(n int) label.Label {
	entries := []label.Entry{
		{Index: 0, Type: label.N, Skl: ref(0, 1)},
		{Index: 0, Type: label.L, Skl: spec.NoRef},
		{Index: 1, Type: label.N, Skl: ref(1, 1)},
		{Index: 0, Type: label.F, Skl: spec.NoRef},
		{Index: 1, Type: label.N, Skl: ref(2, 1)},
	}
	for i := 5; i < n; i++ {
		if i%2 == 1 {
			entries = append(entries, label.Entry{Index: 0, Type: label.N, Skl: ref(3, 2)})
		} else {
			entries = append(entries, label.Entry{Index: 1, Type: label.N, Skl: ref(6, 1)})
		}
	}
	entries[n-1].Skl.V = 0
	return label.Label{Entries: entries}
}

// TestEncodeRefusesLabelsPastMaxEntries pins the refusal: 255 entries
// round-trip, and 256 panic in Encode.
func TestEncodeRefusesLabelsPastMaxEntries(t *testing.T) {
	c := codec(t)
	l := deepLabel(label.MaxEntries)
	dec, err := c.Decode(c.Encode(l))
	if err != nil || !dec.Equal(l) {
		t.Fatalf("%d-entry label does not round-trip: %v", label.MaxEntries, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Encode accepted %d entries", label.MaxEntries+1)
		}
	}()
	c.Encode(deepLabel(label.MaxEntries + 1))
}

// TestCursorValidatesTheWalkedPrefixOnly is the parser's contract: an
// encoding cut anywhere yields exactly the entries that are whole and
// then ErrTruncated, each value the grammar does not hold fails at its
// own entry and not before, and Decode — which walks everything —
// rejects every cut. The cursor yields an interior N entry with its
// graph and no vertex: the next entry's index names the origin.
func TestCursorValidatesTheWalkedPrefixOnly(t *testing.T) {
	c := codec(t)
	var zero label.Cursor
	if ok, err := zero.Next(new(label.Entry)); ok || err != nil || zero.Len() != 0 {
		t.Fatalf("zero Cursor yielded %v, %v", ok, err)
	}
	rng := rand.New(rand.NewSource(5))
	ls, _ := benchLabels(32)
	for _, l := range ls {
		enc := c.Encode(l)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := c.Decode(enc[:cut]); !errors.Is(err, label.ErrTruncated) {
				t.Fatalf("Decode of %x cut to %d bytes: %v", enc, cut, err)
			}
			var cu label.Cursor
			if err := cu.Reset(c, enc[:cut]); err != nil {
				if cut != 0 {
					t.Fatalf("Reset on %d bytes: %v", cut, err)
				}
				continue
			}
			for i := 0; ; i++ {
				var e label.Entry
				ok, err := cu.Next(&e)
				if err != nil {
					if !errors.Is(err, label.ErrTruncated) {
						t.Fatalf("cut %d entry %d: %v", cut, i, err)
					}
					break
				}
				if !ok {
					t.Fatalf("cut %d: cursor reached the end of a truncated label", cut)
				}
				if want := yielded(l, i); e != want {
					t.Fatalf("cut %d entry %d: %v, want %v", cut, i, e, want)
				}
			}
		}
		// Garbage after the encoding is never looked at.
		junk := append(append([]byte(nil), enc...), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if dec, err := c.Decode(junk); err != nil || !dec.Equal(l) {
			t.Fatalf("trailing bytes changed the label: %s, %v", dec, err)
		}
	}
	for name, r := range refusals(spec.MustCompile(wfspecs.RunningExample())) {
		var cu label.Cursor
		if err := cu.Reset(c, r.data); err != nil {
			t.Fatal(err)
		}
		var e label.Entry
		for i := 0; i < r.bad; i++ {
			if ok, err := cu.Next(&e); !ok || err != nil || e != yielded(r.label, i) {
				t.Fatalf("%s: entry %d before the bad one: %v, %v, %v", name, i, e, ok, err)
			}
		}
		if _, err := cu.Next(&e); err == nil || errors.Is(err, label.ErrTruncated) {
			t.Fatalf("%s: entry %d: %v", name, r.bad, err)
		}
	}
}

// yielded is entry i of l as a cursor yields it: an interior N entry
// names its graph and no vertex.
func yielded(l label.Label, i int) label.Entry {
	e := l.Entries[i]
	if e.Type == label.N && i < l.Len()-1 {
		e.Skl.V = graph.None
	}
	return e
}
