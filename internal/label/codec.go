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
// and the ingest pipeline refuses such a label before encoding it. A
// cursor yields no more entries than this, whatever bytes it is given.
const MaxEntries = 255

// A copy or chain position — the index below an L, F or R entry — is an
// Exp-Golomb code: x + 2^k written in 2·m − k − 1 bits, where m is its
// bit length — so m − k − 1 zero bits, then x + 2^k. The order k is one
// constant per type of the entry above: 4 below a loop (L), 3 below a
// fork (F), 2 below a recursion chain (R). A sweep of every order 0–6
// per type over BioAID and agent-grammar runs chose them: the fewest
// padded bytes per label on average over the streams, among the order
// triples that store no stream more than one order 3 for all does
// (docs/BENCHMARKS.md, "A label is framed by its slab"). The longest
// code, of index 2³¹−1 below an R entry, has 61 bits.
const positionOrders = 4<<(4*L) | 3<<(4*F) | 2<<(4*R)

// positionOrder returns the order of a position code below an entry of
// type t.
func positionOrder(t NodeType) uint { return positionOrders >> (4 * (t & 3)) & 15 }

const (
	maxIndex = 1<<31 - 1
	// maxIndexZeros is the longest zero prefix of a position code of
	// order 0; order k's is k shorter.
	maxIndexZeros = 31
)

var (
	// ErrTruncated reports an encoding that ends inside an entry the
	// parser was asked for.
	ErrTruncated = errors.New("label: truncated encoding")

	errStop      = errors.New("label: encoding ends without its stop bit")
	errEnd       = errors.New("label: the last entry ends before the encoding does")
	errDepth     = errors.New("label: more entries than MaxEntries")
	errIndexCode = errors.New("label: index out of range")
	errSlot      = errors.New("label: an interior entry names a graph without composite vertices")
	errChoice    = errors.New("label: implementation choice out of range")
	errLeaf      = errors.New("label: leaf rank out of range")
)

// Codec encodes labels into the canonical bit layout and measures their
// length. A label is its entries, then a stop bit 1, then zero bits to
// a whole byte; it does not store its length, which every reader is
// given with the bytes (a slab extent, an arena index entry, a Merkle
// leaf), and the stop bit makes the bit length exact. Per entry:
//
//	index       none for the root, whose index is always 0; below an N
//	            entry, the slot's rank among the k composite vertices of
//	            that entry's graph in truncated binary (⌊log₂ k⌋ bits for
//	            the first 2^⌈log₂ k⌉ − k ranks, one more for the rest,
//	            none where k is 1); below an L, F or R entry, the copy's
//	            or chain member's position in Exp-Golomb of order 4, 3 or
//	            2 (5, 4 or 3 bits for the first positions)
//	type        1 bit, R or N, where the index ranks the slot of a plain
//	            module with an implementation that has a designated
//	            recursive vertex (spec.SlotRN); none elsewhere
//	last        1 bit on an N entry whose context's choice set stores it
//	            (spec.ChoiceSet.StoresLast); none elsewhere
//	choice      N entries but the last: ⌈log₂ k⌉ bits, the position of
//	            the instance's graph among the k its context allows
//	leaf        the last entry, an N entry: ⌈log₂ a⌉ bits, the vertex's
//	            rank among the a atomic vertices of those graphs
//
// The index comes first because it fixes the type: the root and every
// entry below an L, F or R entry is an N entry, and below an N entry the
// slot the index ranks is a loop module's (L), a fork module's (F) or a
// plain module's — N, or R or N where the bit says (spec.Slot). The
// context is what the entries above imply (spec.ChoiceSet): g0 for the
// root, the implementations of the slot the parent expands below an N, L
// or F node, those of the slot's recursion SCC below an R node. An N
// entry is the last where the bits left at its field are exactly its
// leaf width: the grammar's choice sets are such that an interior entry
// and what follows it take more, except in the sets that store the flag
// instead. An interior N entry stores no vertex at all: its origin is
// the composite vertex whose slot rank is the next entry's index. Nor
// does a label store recursion flags: a chain member's are π on its
// graph's skeleton between its origin and the designated recursive
// vertex (core.Pi). So an entry costs less than Algorithm 1's accounting
// (|entry| ≤ log θ_t + 2 + log n_G + 1 + 1 bits); BitLen counts the
// values stored, EncodedLen the stored bytes.
//
// The format holds the labels of atomic vertices — the modules a run
// executes — only. A label that ends on a composite vertex, which a
// DerivationLabeler issues for an intermediate graph's not-yet-expanded
// module, is in-memory only: BitLen, EncodedLen and Encode refuse it
// (see EncodeInto). EncodedLen and Encode also refuse the empty label and
// one that ends on an L, F or R entry, since a reader ends a label on its
// last N entry.
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

// positionCode returns position x's Exp-Golomb code of order k and its
// length.
func positionCode(x uint64, k uint) (uint64, uint) {
	return x + 1<<k, 2*uint(bits.Len64(x+1<<k)) - k - 1
}

// step moves x onto entry i of l, a label being measured or encoded. It
// returns the entry's head — its index code, then its type bit and its
// last flag where the grammar leaves them open — as the low n bits of
// head, with typeBit the width of the type bit in it, and the width of
// the entry's choice or leaf field. The root and an entry below an L, F
// or R entry are N entries; below an N entry, the index ranks a slot of
// that entry's graph, which fixes the type — or leaves R or N open, to
// one stored bit — and the choice sets. An entry no labeler issues there
// is a caller bug and panics (badEntry). It is the encoder's per-entry
// path, so what it does per entry is inline; Cursor.Next is its
// reader's twin.
func (x *scope) step(g *spec.Grammar, l Label, i int) (head uint64, n, typeBit, width uint) {
	e := &l.Entries[i]
	st, ok := spec.SlotN, e.Index >= 0 && (x.in != atRoot || e.Index == 0)
	switch {
	case x.in >= 0:
		slots := g.Slots(x.in)
		var found bool
		x.slot, found = slots.At(e.Index)
		st, ok = x.slot.Type(), ok && found && l.Entries[i-1].Skl.V == x.slot.Origin()
		x.set = x.slot.Choices(e.Type == R)
		if ok {
			head, n = slots.RankCode(e.Index)
		}
	case x.in != atRoot && ok:
		head, n = positionCode(uint64(e.Index), positionOrder(l.Entries[i-1].Type))
	}
	x.in = -1
	switch {
	case st == spec.SlotRN && (e.Type == N || e.Type == R):
		typeBit = 1
		head, n = head<<1|b2u(e.Type == R), n+1
	case NodeType(st) != e.Type:
		ok = false
	}
	if !ok {
		badEntry(g, l, i)
	}
	if e.Type != N {
		return head, n, typeBit, 0
	}
	last := i == len(l.Entries)-1
	if x.set.StoresLast() {
		head, n = head<<1|b2u(last), n+1
	}
	if last {
		return head, n, typeBit, x.set.LeafBits()
	}
	return head, n, typeBit, x.set.ChoiceBits()
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
// Encode codes each index instead of writing its value bits, adds a last
// flag where a choice set stores one, and ends in a stop bit and the
// padding to a whole byte (see EncodedBits). Like EncodeInto, it panics
// on an entry no labeler issues and on a label that ends on a composite
// vertex.
func (c *Codec) BitLen(l Label) int {
	bits, _ := c.sizes(l)
	return bits
}

// EncodedBits returns the exact wire size of the label in bits: its
// entries, the stop bit and the padding to a whole byte.
func (c *Codec) EncodedBits(l Label) int { return c.EncodedLen(l) * 8 }

// EncodedLen is the length pass: the exact size in bytes Encode
// produces for l — what a caller reserves before EncodeInto. Like
// EncodeInto, it panics on a label that is empty or ends on an L, F or
// R entry (badEnd), on an entry no labeler issues and on a label that
// ends on a composite vertex.
func (c *Codec) EncodedLen(l Label) int {
	if e := l.Entries; len(e) == 0 || e[len(e)-1].Type != N {
		badEnd(l)
	}
	_, wire := c.sizes(l)
	return wire/8 + 1
}

// badEnd panics on l, a label the format cannot hold for what its end
// is: the empty label, or one that ends on an L, F or R entry. A reader
// takes a label to end on its last N entry (Cursor).
func badEnd(l Label) {
	if len(l.Entries) == 0 {
		panic("label: the empty label names no vertex")
	}
	panic(fmt.Sprintf("label: the last entry is an %s entry: the format holds only the labels of executed modules", l.Entries[len(l.Entries)-1].Type))
}

// sizes walks l once and returns both of its lengths in bits: under
// the paper's accounting (BitLen) and as encoded, before the stop bit
// and the padding (EncodedLen).
func (c *Codec) sizes(l Label) (bits, wire int) {
	x := c.start()
	for i := range l.Entries {
		_, n, t, w := x.step(c.g, l, i)
		e := &l.Entries[i]
		if e.Type == N {
			x.in = e.Skl.Graph
		}
		bits += int(t + w)
		wire += int(n + w)
		if i > 0 {
			bits += valueBits(e.Index)
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
// written; what it held does not matter. The empty label, a label deeper
// than MaxEntries, an entry no labeler issues where it stands (see
// step), an N entry whose graph its context does not allow, or a last
// entry that is not an atomic vertex is a caller bug and panics.
// Labelers issue the last only for a DerivationLabeler's not-yet-expanded
// composite modules, whose labels are in-memory only.
func (c *Codec) EncodeInto(dst []byte, l Label) {
	if len(l.Entries) > MaxEntries {
		panic(fmt.Sprintf("label: %d entries exceed the %d the encoding holds", len(l.Entries), MaxEntries))
	}
	if e := l.Entries; len(e) == 0 || e[len(e)-1].Type != N {
		badEnd(l)
	}
	w := bitWriter{buf: dst}
	x := c.start()
	for i := range l.Entries {
		e := &l.Entries[i]
		head, n, _, width := x.step(c.g, l, i)
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
		if n > 32 {
			w.write(head>>32, n-32)
			n = 32
		}
		w.write(head, n)
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
// The bytes given are the whole label: its stop bit, in the last byte,
// fixes where its entries end, and the last N entry ends there. Past
// that, validation covers exactly what was walked: Next fails on an
// entry cut short or naming what the grammar does not hold — an
// implementation choice or a leaf rank past its context's choice set,
// an interior entry of a graph without slots, a flagged last entry that
// does not end the label — or on more than MaxEntries entries, and says
// nothing about the entries after the last one asked for. Detecting
// damage to stored bytes is the CRC, hash-chain and Merkle layers' job.
type Cursor struct {
	g     *spec.Grammar
	r     bitReader
	x     scope
	above NodeType // the type of the entry yielded last
	// left is the number of entries the cursor may yet yield before
	// MaxEntries: 0 in the zero Cursor, and -1 once the last entry was
	// yielded or the bytes hold none.
	left int
}

// Reset points the cursor at the start of an encoded label of codec c
// and finds its end from the stop bit — in place, so a query's two
// cursors live in its frame and are never copied.
func (cu *Cursor) Reset(c *Codec, data []byte) error {
	// Field by field: a composite literal would be built and then
	// copied whole.
	cu.g, cu.x, cu.above, cu.left = c.g, c.start(), N, MaxEntries
	cu.r = bitReader{data: data}
	switch n := len(data); {
	case n == 0:
		cu.left = -1
		return ErrTruncated
	case data[n-1] == 0:
		cu.left = -1
		return errStop
	default:
		cu.r.end = 8*n - bits.TrailingZeros8(data[n-1]) - 1
	}
	return nil
}

// Origin returns the origin of the entry before the last one the cursor
// yielded, when that is an N entry: the composite vertex of its graph
// whose slot rank is the last entry's index. It is unspecified
// otherwise.
func (cu *Cursor) Origin() graph.VertexID { return cu.x.slot.Origin() }

// Next parses the next entry into e and reports whether there was one:
// false with a nil error once every entry has been yielded. On an error
// e is unspecified.
func (cu *Cursor) Next(e *Entry) (bool, error) {
	if cu.left <= 0 {
		if cu.left < 0 || cu.g == nil {
			return false, nil
		}
		return false, errDepth
	}
	r, g, x := &cu.r, cu.g, &cu.x
	var idx uint64
	var slots spec.Slots
	switch {
	case x.in >= 0:
		// A slot rank (spec.Slots.RankCode): b bits, or b + 1 where
		// those read u or more.
		slots = g.Slots(x.in)
		b, u, ok := slots.RankShape()
		if !ok {
			return cu.fail(errSlot)
		}
		r.need(b + 1)
		if idx = r.win >> 1 >> (63 - b); idx < u {
			r.skip(b)
		} else {
			idx = r.win>>(63-b) - u
			r.skip(b + 1)
		}
	case x.in != atRoot:
		// A position code: its zero prefix, then its z + k + 1 bits.
		k := positionOrder(cu.above)
		r.need(32)
		switch z := uint(bits.LeadingZeros64(r.win)); {
		case 2*z+k+1 <= 32:
			// Straight from the window: the prefix is zero, so the
			// code's top bits are its value.
			code := 2*z + k + 1
			idx = r.win>>(64-code) - 1<<k
			r.skip(code)
		case z <= maxIndexZeros-k:
			r.skip(z) // the 32 bits needed cover the prefix
			r.need(z + k + 1)
			if idx = r.take(z+k+1) - 1<<k; idx > maxIndex {
				return cu.fail(errIndexCode)
			}
		default:
			if r.left() <= int(maxIndexZeros-k) {
				return false, ErrTruncated
			}
			return false, errIndexCode
		}
	}
	*e = Entry{Index: int32(idx), Type: N, Skl: spec.NoRef}
	if x.in >= 0 {
		x.slot, _ = slots.At(e.Index)
		if st := x.slot.Type(); st != spec.SlotRN {
			e.Type = NodeType(st)
		} else if r.need(1); r.take(1) == 1 {
			e.Type = R
		}
		x.set = x.slot.Choices(e.Type == R)
	}
	x.in, cu.above = -1, e.Type
	if e.Type == N {
		// The last entry is the one whose leaf rank ends the label, or
		// where its set stores the flag, the one flagged.
		leaf := x.set.LeafBits()
		var last bool
		if x.set.StoresLast() {
			r.need(1)
			if last = r.take(1) == 1; last && r.left() > int(leaf) {
				return cu.fail(errEnd)
			}
		} else {
			last = r.left() == int(leaf)
		}
		w := x.set.ChoiceBits()
		if last {
			w = leaf
		}
		r.need(w)
		f := int(r.take(w))
		var ok bool
		if last {
			if e.Skl, ok = g.Leaf(x.set, f); !ok {
				return cu.fail(errLeaf)
			}
			cu.left = 0
		} else {
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

// decodeSpan is the depth Decode parses into before it knows the
// label's: deeper labels grow a slice.
const decodeSpan = 16

// Decode parses an encoded label into one allocation of its entries.
func (c *Codec) Decode(data []byte) (Label, error) {
	var cu Cursor
	if err := cu.Reset(c, data); err != nil {
		return Label{}, err
	}
	var span [decodeSpan]Entry
	entries := span[:]
	n := 0
	for cu.left >= 0 { // until the last entry is yielded
		if n == len(entries) {
			entries = append(entries, make([]Entry, len(entries))...)
		}
		if _, err := cu.Next(&entries[n]); err != nil {
			return Label{}, err
		}
		if n > 0 && entries[n-1].Type == N {
			entries[n-1].Skl.V = cu.Origin()
		}
		n++
	}
	out := make([]Entry, n)
	copy(out, entries)
	return Label{Entries: out}, nil
}
