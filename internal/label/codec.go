package label

import (
	"errors"
	"fmt"
	"math/bits"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
)

// MaxEntries is the deepest label the encoding holds. Lemma 4.1 keeps
// linear-recursive grammars far below it; nonlinear ones can get there,
// and the ingest pipeline refuses such a label before encoding it.
const MaxEntries = 255

// The index and the entry count are Exp-Golomb codes: x + 2^k written
// in 2·m − k − 1 bits, where m is its bit length — so m − k − 1 zero
// bits, then x + 2^k. Order 0 (Elias-γ) for indexes and order 1 for the
// count give the fewest padded bytes among orders 0–4 on BioAID runs,
// where an index is a slot's rank among a handful of composite vertices
// or a copy's position and most labels hold 4–7 entries; on the deeper
// agent-grammar labels the same orders are best too. The longest codes
// — index 2³¹−1 (63 bits), count 255 (16 bits) — bound the zero prefixes
// below.
const (
	indexOrder    = 0
	maxIndexZeros = 31
	countOrder    = 1
	maxCountZeros = 7
	maxIndex      = 1<<31 - 1
	// shortIndexZeros is the longest prefix whose index code (2·14 + 1
	// bits) a reader takes straight from its window, refilled to at
	// least 32 bits: indexes below 2¹⁵ − 1.
	shortIndexZeros = 14
)

// expGolombLen is the length in bits of x's order-k Exp-Golomb code.
func expGolombLen(x uint64, k uint) uint { return 2*uint(bits.Len64(x+1<<k)) - k - 1 }

var (
	// ErrTruncated reports an encoding that ends inside an entry the
	// parser was asked for.
	ErrTruncated = errors.New("label: truncated encoding")

	errCountCode = errors.New("label: entry count out of range")
	errIndexCode = errors.New("label: index out of range")
	errSlot      = errors.New("label: index names no composite vertex of the instance above")
	errChoice    = errors.New("label: implementation choice out of range")
	errLeaf      = errors.New("label: leaf rank out of range")
)

// Codec encodes labels into the canonical self-delimiting bit layout
// and measures their length. A label is its entry count, then its
// entries:
//
//	count       order-1 Exp-Golomb (4 bits for 2–5 entries)
//
// and per entry
//
//	index       order-0 Exp-Golomb (1 bit for 0, 3 bits for 1–2, 5 bits
//	            for 3–6); none for the root, whose index is always 0
//	type        1 bit, R or N, where the index ranks the slot of a plain
//	            module with an implementation that has a designated
//	            recursive vertex (spec.SlotRN); none elsewhere
//	choice      N entries but the last: ⌈log₂ k⌉ bits, the position of
//	            the instance's graph among the k its context allows
//	leaf        the last entry, when an N entry: ⌈log₂ a⌉ bits, the
//	            vertex's rank among the a atomic vertices of those graphs
//
// padded with zero bits to a whole byte. The index comes first because
// it fixes the type: the root and every entry below an L, F or R entry
// is an N entry, and below an N entry the slot the index ranks is a
// loop module's (L), a fork module's (F) or a plain module's — N, or R
// or N where the bit says (spec.Slot). The context is what the entries
// above imply (spec.ChoiceSet): g0 for the root, the implementations of
// the slot the parent expands below an N, L or F node, those of the
// slot's recursion SCC below an R node. An interior N entry stores no
// vertex at all: its origin is the composite vertex whose slot rank is
// the next entry's index. Nor does a label store recursion flags: a
// chain member's are π on its graph's skeleton between its origin and
// the designated recursive vertex (core.Pi). So an entry costs less
// than Algorithm 1's accounting (|entry| ≤ log θ_t + 2 + log n_G + 1 + 1
// bits), with explicit self-delimiting framing so that encoded labels
// decode without any per-run metadata; BitLen counts the bits stored,
// EncodedLen the stored bytes.
//
// The format holds the labels of atomic vertices — the modules a run
// executes — only. A label that ends on a composite vertex, which a
// DerivationLabeler issues for an intermediate graph's not-yet-expanded
// module, is in-memory only: BitLen, EncodedLen and Encode refuse it
// (see EncodeInto).
type Codec struct {
	g *spec.Grammar
}

// NewCodec builds a codec for labels over the given grammar.
func NewCodec(g *spec.Grammar) *Codec { return &Codec{g: g} }

// scope is what the entries walked so far imply about the next one.
type scope struct {
	// in is the graph of the last entry when it is an N entry, atRoot
	// before the root, and -1 otherwise.
	in  spec.GraphID
	set spec.ChoiceSet // the graphs the next N entry may name
	// slot is the slot the entry walked last expands, when the entry
	// above it is an N entry: its origin is that entry's.
	slot spec.Slot
}

// atRoot is scope.in before the root: no entry walked yet.
const atRoot = -2

// start is the scope of a label's root: an instance of g0.
func (c *Codec) start() scope {
	return scope{in: atRoot, set: c.g.RootChoices(), slot: spec.NoSlot()}
}

// width returns the width of the field of an entry of type t that x has
// moved under, the label's last when last is set: a leaf rank for the
// last N entry, an implementation choice for an interior one, none for
// an L, F or R entry. The caller then sets x.in to an N entry's graph.
func (x *scope) width(t NodeType, last bool) uint {
	switch {
	case t != N:
		return 0
	case last:
		return x.set.LeafBits()
	}
	return x.set.ChoiceBits()
}

// step moves x onto entry i of l, a label being measured or encoded,
// and returns the widths of the entry's stored type bit and of its
// choice or leaf field. The root and an entry below an L, F or R entry
// are N entries; below an N entry, the index ranks a slot of that
// entry's graph, which fixes the type — or leaves R or N open, to one
// stored bit — and the choice sets. An entry no labeler issues there is
// a caller bug and panics (badEntry). It is the encoder's per-entry
// path, so what it does per entry is inline; Cursor.Next is its
// reader's twin.
func (x *scope) step(g *spec.Grammar, l Label, i int) (typeBit, width uint) {
	e := &l.Entries[i]
	st, ok := spec.SlotN, e.Index >= 0 && (x.in != atRoot || e.Index == 0)
	if x.in >= 0 {
		var found bool
		x.slot, found = g.Slot(x.in, e.Index)
		st, ok = x.slot.Type(), ok && found && l.Entries[i-1].Skl.V == x.slot.Origin()
		x.set = x.slot.Choices(e.Type == R)
	}
	x.in = -1
	switch {
	case st == spec.SlotRN && (e.Type == N || e.Type == R):
		typeBit = 1
	case NodeType(st) != e.Type:
		ok = false
	}
	if !ok {
		badEntry(g, l, i)
	}
	return typeBit, x.width(e.Type, i == len(l.Entries)-1)
}

// badEntry panics on entry i of l, a label being measured or encoded,
// that step refused: a negative index, a root index other than 0, an
// index that names no composite vertex of the instance above, an N
// entry above whose origin is not the composite the index ranks, or a
// type other than its place implies. Labelers never issue one.
func badEntry(g *spec.Grammar, l Label, i int) {
	e := &l.Entries[i]
	switch {
	case e.Index < 0:
		panic(fmt.Sprintf("label: negative index %d", e.Index))
	case i == 0 && e.Index != 0:
		panic(fmt.Sprintf("label: root index %d, not 0", e.Index))
	case i == 0 || l.Entries[i-1].Type != N:
		panic(fmt.Sprintf("label: entry %d is an %s entry where the grammar implies N", i, e.Type))
	}
	above := &l.Entries[i-1]
	s, ok := g.Slot(above.Skl.Graph, e.Index)
	switch {
	case !ok:
		panic(fmt.Sprintf("label: entry %d has index %d, which names no composite vertex of g%d", i, e.Index, above.Skl.Graph))
	case above.Skl.V != s.Origin():
		panic(fmt.Sprintf("label: entry %d does not descend from g%d:%d, the origin entry %d names", i, above.Skl.Graph, above.Skl.V, i-1))
	}
	panic(fmt.Sprintf("label: entry %d is an %s entry where the grammar implies %s", i, e.Type, NodeType(s.Type())))
}

// leaf returns the leaf field of l, whose last entry is an N entry
// whose context allows the graphs of set: the vertex's rank among their
// atomic vertices. A vertex outside those graphs, or a composite one,
// is a caller bug and panics.
func (c *Codec) leaf(set spec.ChoiceSet, l Label) uint64 {
	i := len(l.Entries) - 1
	e := &l.Entries[i]
	f, ok := c.g.LeafRank(set, e.Skl)
	if !ok {
		if _, allowed := c.g.Choice(set, e.Skl.Graph); allowed {
			panic(fmt.Sprintf("label: entry %d ends the label on g%d:%d, which is no atomic vertex: the format holds only the labels of executed modules", i, e.Skl.Graph, e.Skl.V))
		}
		panic(fmt.Sprintf("label: entry %d names g%d:%d, which its context does not allow", i, e.Skl.Graph, e.Skl.V))
	}
	return uint64(f)
}

// valueBits returns the bits needed for an index value (≥ 1). Note
// the int32 overflow trap a plain `v >= 1<<w` loop would hit for
// indexes needing 31 bits (the comparison would promote 1<<31 to a
// negative int32 and never terminate).
func valueBits(v int32) int {
	if v <= 0 {
		return 1
	}
	return bits.Len32(uint32(v))
}

// BitLen returns the label length in bits under the paper's accounting
// (Algorithm 1 / Theorem 3), counting only what a label stores: per
// entry, the index's value bits (≤ log θ_t; none for the root), the type
// bit where the slot leaves R or N open, and an N entry's choice or
// leaf field (each at most Algorithm 1's ⌈log₂ n_G⌉ skeleton pointer).
// The 2 type bits and 2 recursion-flag bits Algorithm 1 charges are
// otherwise implied by the grammar. This is the quantity reported as
// "label length" throughout the evaluation; the stored form produced by
// Encode additionally prefix-codes each index and the entry count so
// labels are self-delimiting on disk (see EncodedBits). Like
// EncodeInto, it panics on an entry no labeler issues and on a label
// that ends on a composite vertex.
func (c *Codec) BitLen(l Label) int {
	bits, _ := c.sizes(l)
	return bits
}

// EncodedBits returns the exact wire size of the label in bits,
// including the self-delimiting framing of Encode and its padding to a
// whole byte.
func (c *Codec) EncodedBits(l Label) int { return c.EncodedLen(l) * 8 }

// EncodedLen is the length pass: the exact size in bytes Encode
// produces for l — what a caller reserves before EncodeInto. Like
// EncodeInto, it panics on an entry no labeler issues and on a label
// that ends on a composite vertex.
func (c *Codec) EncodedLen(l Label) int {
	_, wire := c.sizes(l)
	return (wire + 7) / 8
}

// sizes walks l once and returns both of its lengths in bits: under
// the paper's accounting (BitLen) and as encoded, before the padding
// (EncodedLen).
func (c *Codec) sizes(l Label) (bits, wire int) {
	wire = int(expGolombLen(uint64(len(l.Entries)), countOrder))
	x := c.start()
	for i := range l.Entries {
		t, w := x.step(c.g, l, i)
		e := &l.Entries[i]
		if e.Type == N {
			x.in = e.Skl.Graph
		}
		bits += int(t + w)
		wire += int(t + w)
		if i > 0 {
			bits += valueBits(e.Index)
			wire += int(expGolombLen(uint64(e.Index), indexOrder))
		}
	}
	if n := len(l.Entries); n > 0 && l.Entries[n-1].Type == N && c.g.SlotRank(l.Entries[n-1].Skl.Graph, l.Entries[n-1].Skl.V) >= 0 {
		c.leaf(x.set, l) // a composite vertex: refused
	}
	return bits, wire
}

// Encode serializes a label into the canonical layout, in one
// allocation of exactly the encoded length.
func (c *Codec) Encode(l Label) []byte {
	buf := make([]byte, c.EncodedLen(l))
	c.EncodeInto(buf, l)
	return buf
}

// EncodeInto serializes a label into dst, which must be exactly
// EncodedLen(l) bytes — a region the caller reserved where the label
// will be read, so no encoded copy is ever made. Every byte of dst is
// written; what it held does not matter. A label deeper than MaxEntries,
// an entry no labeler issues where it stands (see step), an N entry
// whose graph its context does not allow, or a last N entry that is not
// an atomic vertex is a caller bug and panics. Labelers issue the last
// only for a DerivationLabeler's not-yet-expanded composite modules,
// whose labels are in-memory only.
func (c *Codec) EncodeInto(dst []byte, l Label) {
	if len(l.Entries) > MaxEntries {
		panic(fmt.Sprintf("label: %d entries exceed the %d the encoding holds", len(l.Entries), MaxEntries))
	}
	w := bitWriter{buf: dst}
	w.write(uint64(len(l.Entries))+1<<countOrder, expGolombLen(uint64(len(l.Entries)), countOrder))
	x := c.start()
	for i := range l.Entries {
		e := &l.Entries[i]
		tb, width := x.step(c.g, l, i)
		var field uint64
		switch {
		case e.Type != N:
		case i == len(l.Entries)-1:
			field = c.leaf(x.set, l)
		default:
			f, ok := c.g.Choice(x.set, e.Skl.Graph)
			if !ok {
				panic(fmt.Sprintf("label: entry %d names g%d:%d, which its context does not allow", i, e.Skl.Graph, e.Skl.V))
			}
			field = uint64(f)
		}
		if e.Type == N {
			x.in = e.Skl.Graph
		}
		var idx uint64
		var code uint
		if i > 0 {
			idx, code = uint64(e.Index)+1<<indexOrder, expGolombLen(uint64(e.Index), indexOrder)
		}
		bit := b2u(e.Type == R) // step allows R only where tb is 1
		if code+tb <= 32 {
			w.write(idx<<tb|bit, code+tb)
		} else {
			// Past one write: the zero prefix, the code, then the type.
			z := (code - indexOrder - 1) / 2
			w.write(0, z)
			w.write(idx, code-z)
			w.write(bit, tb)
		}
		w.write(field, width)
	}
	w.finish()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Cursor yields the entries of one encoded label in order, parsing
// them in place: the bytes — heap or arena-mapped — are only read,
// never copied. It is a value type (Reset makes one; the zero Cursor
// is exhausted) and the format's one parser: Decode drains a cursor,
// core.PiBytes steps two in lockstep and stops early.
//
// An interior N entry stores only its graph, so the cursor yields it
// with Skl.V = graph.None: its origin is the composite vertex the next
// entry's index ranks (spec.Grammar.Slot), which Origin returns once
// the cursor has yielded that entry.
//
// Validation covers exactly what was walked: Next fails on an entry
// cut short or naming what the grammar does not hold — an index below
// an N entry past its graph's composite vertices, an implementation
// choice or a leaf rank past its context's choice set — and says
// nothing about bytes after the last entry asked for. Detecting damage
// to stored bytes is the CRC, hash-chain and Merkle layers' job.
type Cursor struct {
	c    *Codec
	r    bitReader
	x    scope
	left int // entries not yet yielded
}

// Reset points the cursor at the start of an encoded label of codec c
// and reads its entry count — in place, so a query's two cursors live
// in its frame and are never copied.
func (cu *Cursor) Reset(c *Codec, data []byte) error {
	*cu = Cursor{c: c, r: bitReader{data: data}, x: c.start()}
	r := &cu.r
	r.need(2*maxCountZeros + countOrder + 1)
	z := uint(bits.LeadingZeros64(r.win))
	if z > maxCountZeros {
		if r.left() <= maxCountZeros {
			return ErrTruncated
		}
		return errCountCode
	}
	n := r.take(2*z+countOrder+1) - 1<<countOrder
	if r.overrun() {
		return ErrTruncated
	}
	if n > MaxEntries {
		return errCountCode
	}
	cu.left = int(n)
	return nil
}

// Len returns the number of entries not yet yielded.
func (cu *Cursor) Len() int { return cu.left }

// Origin returns the origin of the entry before the last one the cursor
// yielded, when that is an N entry: the composite vertex of its graph
// whose slot rank is the last entry's index. It is unspecified
// otherwise.
func (cu *Cursor) Origin() graph.VertexID { return cu.x.slot.Origin() }

// Next parses the next entry into e and reports whether there was one:
// false with a nil error once every entry has been yielded. On an error
// e is unspecified.
func (cu *Cursor) Next(e *Entry) (bool, error) {
	if cu.left == 0 {
		return false, nil
	}
	r := &cu.r
	// The index code — the root has none —: its zero prefix, then the
	// code's z+indexOrder+1 bits.
	var idx uint64
	if cu.x.in != atRoot {
		r.need(32)
		switch z := uint(bits.LeadingZeros64(r.win)); {
		case z <= shortIndexZeros:
			// Straight from the window: the prefix is zero, so the
			// code's top bits are its value.
			code := 2*z + indexOrder + 1
			idx = r.win>>(64-code) - 1<<indexOrder
			r.win <<= code
			r.n -= code
		case z <= maxIndexZeros:
			r.take(z) // the 32 bits needed cover the prefix
			r.need(z + indexOrder + 1)
			if idx = r.take(z+indexOrder+1) - 1<<indexOrder; idx > maxIndex {
				return cu.fail(errIndexCode)
			}
		default:
			if r.left() <= maxIndexZeros {
				return false, ErrTruncated
			}
			return false, errIndexCode
		}
	}
	g, x := cu.c.g, &cu.x
	*e = Entry{Index: int32(idx), Type: N, Skl: spec.NoRef}
	if x.in >= 0 {
		var ok bool
		if x.slot, ok = g.Slot(x.in, e.Index); !ok {
			return cu.fail(errSlot)
		}
		if st := x.slot.Type(); st != spec.SlotRN {
			e.Type = NodeType(st)
		} else if r.need(1); r.take(1) == 1 {
			e.Type = R
		}
		x.set = x.slot.Choices(e.Type == R)
	}
	x.in = -1
	if e.Type == N {
		last := cu.left == 1
		w := x.width(N, last)
		r.need(w)
		f := int(r.take(w))
		var ok bool
		switch {
		case last:
			if e.Skl, ok = g.Leaf(x.set, f); !ok {
				return cu.fail(errLeaf)
			}
		default:
			if e.Skl.Graph, ok = g.ChoiceGraph(x.set, f); !ok {
				return cu.fail(errChoice)
			}
			e.Skl.V = graph.None
		}
		x.in = e.Skl.Graph
	}
	if r.overrun() {
		return false, ErrTruncated
	}
	cu.left--
	return true, nil
}

// fail reports err for a value read from the walked bits, or
// ErrTruncated when those bits ran past the end of the encoding.
func (cu *Cursor) fail(err error) (bool, error) {
	if cu.r.overrun() {
		return false, ErrTruncated
	}
	return false, err
}

// Decode parses an encoded label.
func (c *Codec) Decode(data []byte) (Label, error) {
	var cu Cursor
	if err := cu.Reset(c, data); err != nil {
		return Label{}, err
	}
	entries := make([]Entry, cu.Len())
	for i := range entries {
		if _, err := cu.Next(&entries[i]); err != nil {
			return Label{}, err
		}
		if i > 0 && entries[i-1].Type == N {
			entries[i-1].Skl.V = cu.Origin()
		}
	}
	return Label{Entries: entries}, nil
}
