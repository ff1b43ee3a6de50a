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
	// shortIndexZeros is the longest prefix whose entry type and index
	// code (2 + 2·14 + 1 bits) move in one 32-bit field: indexes below
	// 2¹⁵ − 1.
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
//	type        2 bits
//	index       order-0 Exp-Golomb (1 bit for 0, 3 bits for 1–2, 5 bits for 3–6)
//	choice      N entries but the last: ⌈log₂ k⌉ bits, the position of
//	            the instance's graph among the k its context allows
//	leaf        the last entry, when an N entry: ⌈log₂ a⌉ bits, the
//	            vertex's rank among the a atomic vertices of those graphs
//	rec         1 presence bit (+ 2 flag bits) when the previous
//	            entry's node is an R node
//
// padded with zero bits to a whole byte. The context is what the
// entries above imply (spec.ChoiceSet): g0 for the root, the
// implementations of the slot the parent expands below an N, L or F
// node, those of the slot's recursion SCC below an R node. An interior
// N entry stores no vertex at all: its origin is the composite vertex
// whose slot rank is the next entry's index. So an entry costs at most
// Algorithm 1's accounting (|entry| ≤ log θ_t + 2 + log n_G + 1 + 1
// bits), with explicit self-delimiting framing so that encoded labels
// decode without any per-run metadata; BitLen counts the accounting,
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
	in     spec.GraphID   // graph of the last entry when it is an N entry, else -1
	set    spec.ChoiceSet // the graphs the next N entry may name
	origin graph.VertexID // the origin of the N entry below has just moved past
}

// start is the scope of a label's root: an instance of g0.
func (c *Codec) start() scope {
	return scope{in: -1, set: c.g.RootChoices(), origin: graph.None}
}

// below moves x onto the next entry, of type t and index idx. When the
// entry above is an N entry, idx is the slot rank of that entry's
// origin, which also picks the choice set, and below reports false when
// idx names no composite vertex of its graph. It is on every walker's
// per-entry path, so it stays within the compiler's inlining budget
// (`go build -gcflags=-m` reports it), and apart from width for that.
func (x *scope) below(g *spec.Grammar, t NodeType, idx int32) bool {
	if x.in < 0 {
		return true
	}
	var ok bool
	x.origin, x.set, ok = g.Slot(x.in, idx, t == R)
	x.in = -1
	return ok
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

// badIndex panics on entry i of l, a label being measured or encoded,
// whose index is negative or names no composite vertex of the instance
// above: labelers never issue one.
func badIndex(l Label, i int) {
	if e := &l.Entries[i]; e.Index < 0 {
		panic(fmt.Sprintf("label: negative index %d", e.Index))
	}
	panic(fmt.Sprintf("label: entry %d has index %d, which names no composite vertex of g%d", i, l.Entries[i].Index, l.Entries[i-1].Skl.Graph))
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
// (Algorithm 1 / Theorem 3): per entry, 2 type bits, the index's value
// bits (≤ log θ_t), an N entry's choice or leaf field (each at most
// Algorithm 1's ⌈log₂ n_G⌉ skeleton pointer) and 2 recursion-flag bits
// for recursion-chain members. This is the quantity reported as "label
// length" throughout the evaluation; the stored form produced by Encode
// additionally prefix-codes each index and the entry count so labels
// are self-delimiting on disk (see EncodedBits). Like EncodeInto, it
// panics on an index that names no slot and on a label that ends on a
// composite vertex.
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
// EncodeInto, it panics on an index that names no slot and on a label
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
		e := &l.Entries[i]
		if !x.below(c.g, e.Type, e.Index) || e.Index < 0 {
			badIndex(l, i)
		}
		w := x.width(e.Type, i == len(l.Entries)-1)
		if e.Type == N {
			x.in = e.Skl.Graph
		}
		bits += 2 + valueBits(e.Index) + int(w)
		wire += 2 + int(expGolombLen(uint64(e.Index), indexOrder)) + int(w)
		if i > 0 && l.Entries[i-1].Type == R {
			bits += 2
			wire++
			if e.HasRec {
				wire += 2
			}
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
// a negative index, an index that names no slot, an N entry whose graph
// its context does not allow, an interior N entry whose origin is not
// the composite the next index ranks, or a last N entry that is not an
// atomic vertex is a caller bug and panics. Labelers issue the last
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
		if !x.below(c.g, e.Type, e.Index) || e.Index < 0 {
			badIndex(l, i)
		}
		width := x.width(e.Type, i == len(l.Entries)-1)
		if i > 0 && l.Entries[i-1].Type == N && l.Entries[i-1].Skl.V != x.origin {
			panic(fmt.Sprintf("label: entry %d does not descend from g%d:%d, the origin entry %d names", i, l.Entries[i-1].Skl.Graph, l.Entries[i-1].Skl.V, i-1))
		}
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
		idx := uint64(e.Index) + 1<<indexOrder
		if code := expGolombLen(uint64(e.Index), indexOrder); code <= 32-2 {
			w.write(uint64(e.Type)<<code|idx, 2+code)
		} else {
			// Past one write: the type, the zero prefix, then the code.
			z := (code - indexOrder - 1) / 2
			w.write(uint64(e.Type), 2)
			w.write(0, z)
			w.write(idx, code-z)
		}
		w.write(field, width)
		if i > 0 && l.Entries[i-1].Type == R {
			if e.HasRec {
				w.write(4|b2u(e.Rec1)<<1|b2u(e.Rec2), 3)
			} else {
				w.write(0, 1)
			}
		}
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
// entry's index ranks (spec.Grammar.Slot), which Decode fills in
// and π reads from that entry.
//
// Validation covers exactly what was walked: Next fails on an entry
// cut short or naming what the grammar does not hold — an index below
// an N entry past its graph's composite vertices, an implementation
// choice or a leaf rank past its context's choice set — and says
// nothing about bytes after the last entry asked for. Detecting damage
// to stored bytes is the CRC, hash-chain and Merkle layers' job.
type Cursor struct {
	c     *Codec
	r     bitReader
	x     scope
	left  int  // entries not yet yielded
	prevR bool // the last entry yielded was an R node
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

// Next parses the next entry into e and reports whether there was one:
// false with a nil error once every entry has been yielded. On an error
// e is unspecified.
func (cu *Cursor) Next(e *Entry) (bool, error) {
	if cu.left == 0 {
		return false, nil
	}
	r := &cu.r
	r.need(32)
	// The type's 2 bits, then the index code's zero prefix.
	var hdr, idx uint64
	switch w, z := r.win, uint(bits.LeadingZeros64(r.win<<2)); {
	case z <= shortIndexZeros:
		// Both fields straight from the window: the type's top 2 bits,
		// the code's z+indexOrder+1 bits after its zero prefix.
		code := 2*z + indexOrder + 1
		hdr = w >> 62
		idx = w<<(2+z)>>(64-(code-z)) - 1<<indexOrder
		r.win <<= 2 + code
		r.n -= 2 + code
	case z <= maxIndexZeros:
		r.need(2 + z)
		hdr = r.take(2+z) >> z
		r.need(z + indexOrder + 1)
		if idx = r.take(z+indexOrder+1) - 1<<indexOrder; idx > maxIndex {
			return cu.fail(errIndexCode)
		}
	default:
		if r.left() <= 2+maxIndexZeros {
			return false, ErrTruncated
		}
		return false, errIndexCode
	}
	*e = Entry{Index: int32(idx), Type: NodeType(hdr), Skl: spec.NoRef}
	g := cu.c.g
	if !cu.x.below(g, e.Type, e.Index) {
		return cu.fail(errSlot)
	}
	if e.Type == N {
		last := cu.left == 1
		w := cu.x.width(N, last)
		r.need(w)
		f := int(r.take(w))
		var ok bool
		switch {
		case last:
			if e.Skl, ok = g.Leaf(cu.x.set, f); !ok {
				return cu.fail(errLeaf)
			}
		default:
			if e.Skl.Graph, ok = g.ChoiceGraph(cu.x.set, f); !ok {
				return cu.fail(errChoice)
			}
			e.Skl.V = graph.None
		}
		cu.x.in = e.Skl.Graph
	}
	r.need(3)
	if cu.prevR && r.take(1) == 1 {
		flags := r.take(2)
		e.HasRec, e.Rec1, e.Rec2 = true, flags&2 != 0, flags&1 != 0
	}
	if r.overrun() {
		return false, ErrTruncated
	}
	cu.prevR = e.Type == R
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
			entries[i-1].Skl.V = cu.x.origin
		}
	}
	return Label{Entries: entries}, nil
}
