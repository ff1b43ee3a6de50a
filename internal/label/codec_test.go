package label_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
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
// tables. Only whether a set stores the last flag is the grammar's.
func refEncode(g *spec.Grammar, l label.Label) []byte { return refEncodeWith(g, l, nil) }

// positionOrders are the Exp-Golomb orders of a copy's or chain
// member's position below an L, F and R entry.
var positionOrders = map[label.NodeType]int{label.L: 4, label.F: 3, label.R: 2}

// refEncodeWith is refEncode with the choice or leaf field of the
// entries named in field replaced by the value given.
func refEncodeWith(g *spec.Grammar, l label.Label, field map[int]uint64) []byte {
	enc, _ := refLayout(g, l, field)
	return enc
}

// fieldAt is where an N entry's field starts in a reference encoding:
// the bits left to the stop bit there, and the entry's choice set.
type fieldAt struct {
	left int
	set  spec.ChoiceSet
}

// refLayout is refEncodeWith, which also returns where each N entry's
// field starts, by entry.
func refLayout(g *spec.Grammar, l label.Label, field map[int]uint64) ([]byte, map[int]fieldAt) {
	var w refBitWriter
	at := make(map[int]fieldAt)
	set := g.RootChoices()
	for i, e := range l.Entries {
		if i > 0 && l.Entries[i-1].Type == label.N {
			above := l.Entries[i-1].Skl.Graph
			w.truncatedBinary(uint64(e.Index), uint64(len(vertices(g, above, true))))
			slot, _ := g.Slot(above, e.Index)
			set = slot.Choices(e.Type == label.R)
			if opensChain(g, g.Spec().Graph(above).G.Name(vertices(g, above, true)[e.Index])) {
				w.write(b2u(e.Type == label.R), 1)
			}
		} else if i > 0 {
			w.expGolomb(uint64(e.Index), positionOrders[l.Entries[i-1].Type])
		}
		if e.Type == label.N {
			last := i == len(l.Entries)-1
			if set.StoresLast() {
				w.write(b2u(last), 1)
			}
			// The field and the number of values it has: the graph's
			// place in the set, or the vertex's among the set's atomic
			// vertices for the last entry.
			var v, n uint64
			for _, id := range choiceGraphs(g, set) {
				if !last {
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
			at[i] = fieldAt{left: int(w.nbit), set: set}
			w.write(v, width)
		}
	}
	for i, f := range at {
		at[i] = fieldAt{left: int(w.nbit) - f.left, set: f.set}
	}
	w.write(1, 1) // the stop bit
	return w.buf, at
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

// truncatedBinary writes x < n in truncated binary: with b the widest
// width such that 2^b ≤ n and u = 2^(b+1) − n, x in b bits if it is
// below u, and x + u in b + 1 bits otherwise.
func (w *refBitWriter) truncatedBinary(x, n uint64) {
	b := 0
	for 1<<(b+1) <= n {
		b++
	}
	if u := uint64(1)<<(b+1) - n; x >= u {
		w.write(x+u, b+1)
	} else {
		w.write(x, b)
	}
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
// write every byte of the extent it is given. And the grammar's last
// flags are where a reader needs them: at every interior N entry of a
// set that does not store the flag, the bits left at its field are not
// the set's leaf width, which the last entry's always are.
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
	n, flagged := 0, 0
	for g, ls := range labels {
		c := label.NewCodec(g)
		for _, l := range ls {
			want, at := refLayout(g, l, nil)
			if got := c.Encode(l); !bytes.Equal(got, want) {
				t.Fatalf("%s: Encode = %x, reference writer = %x", l, got, want)
			}
			for i, f := range at {
				switch last := i == l.Len()-1; {
				case f.set.StoresLast():
					flagged++
				case last != (f.left == int(f.set.LeafBits())):
					t.Fatalf("%s: entry %d (last: %v) leaves %d bits at its field, and its set's leaf width is %d with no last flag", l, i, last, f.left, f.set.LeafBits())
				}
			}
			got := c.Encode(l)
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
	t.Logf("%d labels, %d N entries of sets that store the last flag", n, flagged)
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
// whole and the label's length is what they take: an implementation
// choice past its set, an interior entry naming a graph without
// composite vertices, a leaf rank past its set's atomic vertices.
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
	// The member's choice and the entry below it take four bits, not
	// the set's three of a leaf rank: the member is interior.
	interior := chain.
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 1)}).
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(5, 0)})
	leaf := chain.Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 0)})
	// The same member as an instance of h4 = s4 → t4, which has no slot
	// for the next entry's index to rank.
	h4 := label.Label{Entries: slices.Clone(interior.Entries)}
	h4.Entries[6].Skl = ref(4, 0)
	return map[string]refusal{
		"choice past its set":          {refEncodeWith(g, interior, map[int]uint64{6: 3}), interior, 6},
		"interior graph without slots": {refEncodeWith(g, interior, map[int]uint64{6: 1}), h4, 7},
		"leaf rank past its set":       {refEncodeWith(g, leaf, map[int]uint64{6: 7}), leaf, 6},
	}
}

// TestDecodeRefusesOutOfRangeCodes: a well-formed code for a value the
// format cannot hold — a position past 2³¹−1, a prefix longer than a
// position code's longest, more entries than MaxEntries, an
// implementation choice or leaf rank the grammar does not hold, an
// interior entry of a graph without slots — is an error, not a
// truncation and not a wrapped value; so are bytes whose last is zero,
// which hold no stop bit.
func TestDecodeRefusesOutOfRangeCodes(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	c := label.NewCodec(g)
	// The root and g0's one slot, an L node, store nothing: the loop
	// copy's position is the label's first code.
	var w refBitWriter
	w.expGolomb(1<<31, positionOrders[label.L])
	w.write(0, 16)
	w.write(1, 1)
	overIndex := w.buf
	cases := map[string][]byte{
		"position 2^31":            overIndex,
		"position prefix too long": {0, 0, 0, 0, 0, 0x80},
		"MaxEntries+1 entries":     refEncode(g, deepLabel(label.MaxEntries+1)),
		"no stop bit":              {0x12, 0},
	}
	for name, r := range refusals(g) {
		cases[name] = r.data
	}
	for name, data := range cases {
		if _, err := c.Decode(data); err == nil || errors.Is(err, label.ErrTruncated) {
			t.Errorf("%s (%x): %v", name, data, err)
		}
	}
}

// ambiguousGrammar is a grammar where the bits left at an N entry's
// field cannot tell whether it is the last: A's implementations are
// h1, a chain of six atomic vertices, and h2 = s2 → B → t2, whose B has
// the one implementation h3 of three atomic vertices. A leaf rank among
// A's eight atomic vertices takes 3 bits, and so does an interior h2
// entry's 1-bit choice with the 2-bit leaf rank in h3 below it.
func ambiguousGrammar() *spec.Grammar {
	return spec.MustCompile(spec.NewBuilder().
		Composite("A", "B").
		Start("g0", spec.G([]string{"s0", "A", "t0"}, [2]string{"s0", "A"}, [2]string{"A", "t0"})).
		Implement("A", "h1", spec.G([]string{"a1", "a2", "a3", "a4", "a5", "a6"},
			[2]string{"a1", "a2"}, [2]string{"a2", "a3"}, [2]string{"a3", "a4"}, [2]string{"a4", "a5"}, [2]string{"a5", "a6"})).
		Implement("A", "h2", spec.G([]string{"s2", "B", "t2"}, [2]string{"s2", "B"}, [2]string{"B", "t2"})).
		Implement("B", "h3", spec.G([]string{"s3", "x3", "t3"}, [2]string{"s3", "x3"}, [2]string{"x3", "t3"})).
		MustBuild())
}

// TestLastFlagWhereTheLengthCannotTell: in a choice set where an
// interior entry and the shortest continuation below it take as many
// bits as a leaf rank, the N entries store whether they are the last —
// A's set in ambiguousGrammar, and not g0's or B's — and with the flag
// the labels of every vertex round-trip, as the reference writer
// writes them, although an h3 vertex's label leaves exactly A's leaf
// width after the flag. A flag that says last where more bits follow
// is an error.
func TestLastFlagWhereTheLengthCannotTell(t *testing.T) {
	g := ambiguousGrammar()
	c := label.NewCodec(g)
	a, _ := g.Slot(0, 0)
	b, _ := g.Slot(2, 0)
	if set := a.Choices(false); !set.StoresLast() || set.LeafBits() != 3 || set.ChoiceBits() != 1 {
		t.Fatalf("A's set: stores the flag %v, %d choice bits, %d leaf bits; want true, 1, 3", set.StoresLast(), set.ChoiceBits(), set.LeafBits())
	}
	if g.RootChoices().StoresLast() || b.Choices(false).StoresLast() {
		t.Fatal("g0's or B's set stores the last flag")
	}
	root := label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}
	var labels []label.Label
	for _, v := range vertices(g, 1, false) {
		labels = append(labels, label.Label{Entries: []label.Entry{root, {Index: 0, Type: label.N, Skl: ref(1, int(v))}}})
	}
	for _, v := range vertices(g, 2, false) {
		labels = append(labels, label.Label{Entries: []label.Entry{root, {Index: 0, Type: label.N, Skl: ref(2, int(v))}}})
	}
	for _, v := range vertices(g, 3, false) {
		l := label.Label{Entries: []label.Entry{root, {Index: 0, Type: label.N, Skl: ref(2, 1)}, {Index: 0, Type: label.N, Skl: ref(3, int(v))}}}
		if got := c.WireBits(l); got != 1+3 {
			t.Fatalf("%s: %d bits, want the flag and A's 3-bit leaf width", l, got)
		}
		labels = append(labels, l)
	}
	seen := make(map[string]bool)
	for _, l := range labels {
		enc := c.Encode(l)
		if want := refEncode(g, l); !bytes.Equal(enc, want) {
			t.Fatalf("%s: Encode = %x, reference writer = %x", l, enc, want)
		}
		if dec, err := c.Decode(enc); err != nil || !dec.Equal(l) {
			t.Fatalf("%s decodes to %s, %v", l, dec, err)
		}
		if seen[string(enc)] {
			t.Fatalf("%s: encoding %x is another label's", l, enc)
		}
		seen[string(enc)] = true
	}
	// The flag says last, and four bits follow it.
	if _, err := c.Decode([]byte{0b1000_0100}); err == nil || errors.Is(err, label.ErrTruncated) {
		t.Fatalf("a last entry 4 bits from the end: %v", err)
	}
}

// TestEncodedLenOnBioAID pins the stored size of a label on a fixed-seed
// BioAID run, the grammar the restore benchmark snapshots: 2.90 bytes
// here (3.38 on a 200k-event stream like the benchmark's).
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
	if mean := float64(total) / float64(len(evs)); mean > 2.95 {
		t.Fatalf("mean encoded label is %.3f bytes, want ≤ 2.95", mean)
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

// TestCursorValidatesTheWalkedPrefixOnly is the parser's contract: the
// bytes given are the whole label, so an encoding cut anywhere, or
// followed by more bytes, is an error or another label — one whose
// encoding is exactly those bytes — and never a panic; each value the
// grammar does not hold fails at its own entry and not before. The
// cursor yields an interior N entry with its graph and no vertex: the
// next entry's index names the origin.
func TestCursorValidatesTheWalkedPrefixOnly(t *testing.T) {
	c := codec(t)
	var zero label.Cursor
	if ok, err := zero.Next(new(label.Entry)); ok || err != nil {
		t.Fatalf("zero Cursor yielded %v, %v", ok, err)
	}
	rng := rand.New(rand.NewSource(5))
	ls, _ := benchLabels(32)
	for _, l := range ls {
		enc := c.Encode(l)
		var cu label.Cursor
		if err := cu.Reset(c, enc); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			var e label.Entry
			ok, err := cu.Next(&e)
			if err != nil || ok != (i < l.Len()) || ok && e != yielded(l, i) {
				t.Fatalf("%s: entry %d: %v, %v, %v", l, i, e, ok, err)
			}
			if !ok {
				break
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			if dec, err := c.Decode(enc[:cut]); err == nil && !bytes.Equal(c.Encode(dec), enc[:cut]) {
				t.Fatalf("%x cut to %d bytes decodes to %s, which encodes to %x", enc, cut, dec, c.Encode(dec))
			}
		}
		junk := append(append([]byte(nil), enc...), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if dec, err := c.Decode(junk); err == nil && (dec.Equal(l) || !bytes.Equal(c.Encode(dec), junk)) {
			t.Fatalf("%x decodes to %s", junk, dec)
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
