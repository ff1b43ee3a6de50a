package label_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// refEncode is the reference the production writer must match byte for
// byte: the format written down one bit at a time, with the codes'
// lengths found by counting rather than by math/bits.
func refEncode(g *spec.Grammar, l label.Label) []byte {
	var offsets []int
	total := 0
	for _, ng := range g.Spec().Graphs() {
		offsets = append(offsets, total)
		total += ng.G.NumVertices()
	}
	var w refBitWriter
	w.expGolomb(uint64(len(l.Entries)), 1)
	prevR := false
	for _, e := range l.Entries {
		w.write(uint64(e.Type), 2)
		w.expGolomb(uint64(e.Index), 2)
		if e.Type == label.N {
			w.write(uint64(offsets[e.Skl.Graph]+int(e.Skl.V)), g.PointerBits())
		}
		if prevR {
			if e.HasRec {
				w.write(1, 1)
				w.write(b2u(e.Rec1), 1)
				w.write(b2u(e.Rec2), 1)
			} else {
				w.write(0, 1)
			}
		}
		prevR = e.Type == label.R
	}
	return w.buf
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
// ones (deep labels, every node type, recursion flags).
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
// each longer class, and the widths where shifts go wrong first — 2³⁰
// and 2³¹−1, whose 61-bit code is longer than the reader's refill.
var indexTable = []int32{0, 1, 2, 3, 4, 11, 12, 1 << 30, 1<<31 - 1}

// TestEncodeMatchesReferenceWriter: the word-at-a-time writer must be
// byte-identical to the bit-at-a-time one on the whole corpus, on the
// index table and on the deepest label; its length pass must agree with
// it, decoding must give the label back, and encoding in place must
// write every byte of the extent it is given.
func TestEncodeMatchesReferenceWriter(t *testing.T) {
	labels := corpus(t)
	g := spec.MustCompile(wfspecs.RunningExample())
	for _, idx := range indexTable {
		for _, rec := range []label.Entry{
			{Index: idx, Type: label.N, Skl: ref(3, 2)},
			{Index: idx, Type: label.N, Skl: ref(3, 2), HasRec: true, Rec1: true},
			{Index: idx, Type: label.N, Skl: ref(3, 2), HasRec: true, Rec2: true},
		} {
			labels[g] = append(labels[g], label.Label{}.
				Append(label.Entry{Index: idx, Type: label.N, Skl: ref(0, 1)}).
				Append(label.Entry{Index: idx, Type: label.L, Skl: spec.NoRef}).
				Append(label.Entry{Index: idx, Type: label.F, Skl: spec.NoRef}).
				Append(label.Entry{Index: idx, Type: label.R, Skl: spec.NoRef}).
				Append(rec))
		}
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

// TestDecodeRefusesOutOfRangeCodes: a well-formed code for a value the
// format cannot hold — an index past 2³¹−1, a count past MaxEntries, a
// prefix longer than either's longest code — is an error, not a
// truncation and not a wrapped value.
func TestDecodeRefusesOutOfRangeCodes(t *testing.T) {
	c := codec(t)
	var w refBitWriter
	w.expGolomb(1, 1)
	w.write(uint64(label.L), 2)
	w.expGolomb(1<<31, 2)
	w.write(0, 16)
	overIndex := w.buf
	w = refBitWriter{}
	w.expGolomb(label.MaxEntries+1, 1)
	w.write(0, 16)
	overCount := w.buf
	for name, data := range map[string][]byte{
		"index 2^31":            overIndex,
		"count MaxEntries+1":    overCount,
		"index prefix too long": {0x40, 0, 0, 0, 0, 0, 0, 0, 0},
		"count prefix too long": {0, 0x80, 0, 0},
	} {
		if _, err := c.Decode(data); err == nil || errors.Is(err, label.ErrTruncated) {
			t.Errorf("%s (%x): %v", name, data, err)
		}
	}
}

// TestEncodedLenOnBioAID pins the stored size of a label on a fixed-seed
// BioAID run, the grammar the restore benchmark snapshots: 7.73 bytes
// here (8.48 on the benchmark's 200k-event stream).
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
	if mean := float64(total) / float64(len(evs)); mean > 7.75 {
		t.Fatalf("mean encoded label is %.3f bytes, want ≤ 7.75", mean)
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

// deepLabel builds a label of n entries: a root and n-1 nested
// instances, the shape a nonlinear recursion produces.
func deepLabel(n int) label.Label {
	entries := make([]label.Entry, n)
	for i := range entries {
		entries[i] = label.Entry{Index: int32(i % 3), Type: label.N, Skl: ref(0, i%2)}
	}
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
// then ErrTruncated, an out-of-range skeleton pointer fails at its own
// entry and not before, and Decode — which walks everything — rejects
// every cut.
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
				if e != l.Entries[i] {
					t.Fatalf("cut %d entry %d: %v, want %v", cut, i, e, l.Entries[i])
				}
			}
		}
		// Garbage after the encoding is never looked at.
		junk := append(append([]byte(nil), enc...), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if dec, err := c.Decode(junk); err != nil || !dec.Equal(l) {
			t.Fatalf("trailing bytes changed the label: %s, %v", dec, err)
		}
	}
	// RunningExample has fewer spec vertices than its pointer width can
	// name: entry 0 is fine, entry 1 points past the table.
	bad := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 0)}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(0, 1)})
	enc := c.Encode(bad)
	// A count of 2 is 4 bits, entry 0 is 2+3+ptr bits (type, index 0,
	// pointer), and entry 1's pointer follows its 2 type and 3 index bits.
	at := 4 + 2 + 3 + c.PointerBits() + 2 + 3
	for i := 0; i < c.PointerBits(); i++ {
		enc[(at+i)/8] |= 1 << (7 - (at+i)%8)
	}
	var cu label.Cursor
	var e label.Entry
	if err := cu.Reset(c, enc); err != nil {
		t.Fatal(err)
	}
	if ok, err := cu.Next(&e); !ok || err != nil || e != bad.Entries[0] {
		t.Fatalf("entry before the bad pointer: %v, %v, %v", e, ok, err)
	}
	if _, err := cu.Next(&e); err == nil || errors.Is(err, label.ErrTruncated) {
		t.Fatalf("all-ones skeleton pointer: %v", err)
	}
}
