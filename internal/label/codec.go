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
//	skl         ⌈log₂ n_G⌉ bits (global spec-vertex number), N entries only
//	rec         1 presence bit (+ 2 flag bits) when the previous
//	            entry's node is an R node
//
// padded with zero bits to a whole byte. This realizes Algorithm 1's
// accounting (|entry| ≤ log θ_t + 2 + log n_G + 1 + 1 bits) with
// explicit self-delimiting framing so that encoded labels decode
// without any per-run metadata; BitLen counts the accounting, EncodedLen
// the stored bytes.
type Codec struct {
	ptrBits uint
	offsets []int            // graph id -> first global vertex number
	refs    []spec.VertexRef // global vertex number -> vertex
}

// NewCodec builds a codec for labels over the given grammar.
func NewCodec(g *spec.Grammar) *Codec {
	graphs := g.Spec().Graphs()
	c := &Codec{ptrBits: uint(g.PointerBits())}
	for id, ng := range graphs {
		c.offsets = append(c.offsets, len(c.refs))
		for v := 0; v < ng.G.NumVertices(); v++ {
			c.refs = append(c.refs, spec.VertexRef{Graph: spec.GraphID(id), V: graph.VertexID(v)})
		}
	}
	return c
}

// global converts a VertexRef into its global vertex number.
func (c *Codec) global(r spec.VertexRef) int {
	return c.offsets[r.Graph] + int(r.V)
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
// bits (≤ log θ_t), the skeleton pointer (⌈log₂ n_G⌉, N entries only)
// and 2 recursion-flag bits for recursion-chain members. This is the
// quantity reported as "label length" throughout the evaluation; the
// stored form produced by Encode additionally prefix-codes each index
// and the entry count so labels are self-delimiting on disk (see
// EncodedBits).
func (c *Codec) BitLen(l Label) int {
	bits := 0
	prevR := false
	for _, e := range l.Entries {
		bits += 2 + valueBits(e.Index)
		if e.Type == N && !e.Skl.IsZero() {
			bits += int(c.ptrBits)
		}
		if prevR {
			bits += 2
		}
		prevR = e.Type == R
	}
	return bits
}

// EncodedBits returns the exact wire size of the label in bits,
// including the self-delimiting framing of Encode and its padding to a
// whole byte.
func (c *Codec) EncodedBits(l Label) int { return c.EncodedLen(l) * 8 }

// EncodedLen is the length pass: the exact size in bytes Encode
// produces for l — what a caller reserves before EncodeInto.
func (c *Codec) EncodedLen(l Label) int {
	n := expGolombLen(uint64(len(l.Entries)), countOrder)
	prevR := false
	for i := range l.Entries {
		e := &l.Entries[i]
		n += 2 + expGolombLen(uint64(e.Index), indexOrder)
		if e.Type == N {
			n += c.ptrBits
		}
		if prevR {
			n++
			if e.HasRec {
				n += 2
			}
		}
		prevR = e.Type == R
	}
	return int(n+7) / 8
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
// a negative index or an N entry without skeleton pointer is a caller
// bug.
func (c *Codec) EncodeInto(dst []byte, l Label) {
	if len(l.Entries) > MaxEntries {
		panic(fmt.Sprintf("label: %d entries exceed the %d the encoding holds", len(l.Entries), MaxEntries))
	}
	w := bitWriter{buf: dst}
	w.write(uint64(len(l.Entries))+1<<countOrder, expGolombLen(uint64(len(l.Entries)), countOrder))
	prevR := false
	for i := range l.Entries {
		e := &l.Entries[i]
		if e.Index < 0 {
			panic(fmt.Sprintf("label: negative index %d", e.Index))
		}
		x := uint64(e.Index) + 1<<indexOrder
		if code := expGolombLen(uint64(e.Index), indexOrder); code <= 32-2 {
			w.write(uint64(e.Type)<<code|x, 2+code)
		} else {
			// Past one write: the type, the zero prefix, then x.
			z := (code - indexOrder - 1) / 2
			w.write(uint64(e.Type), 2)
			w.write(0, z)
			w.write(x, code-z)
		}
		if e.Type == N {
			if e.Skl.IsZero() {
				panic("label: N entry without skeleton pointer")
			}
			w.write(uint64(c.global(e.Skl)), c.ptrBits)
		}
		if prevR {
			if e.HasRec {
				w.write(4|b2u(e.Rec1)<<1|b2u(e.Rec2), 3)
			} else {
				w.write(0, 1)
			}
		}
		prevR = e.Type == R
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
// Validation covers exactly what was walked: Next fails on an entry
// cut short or pointing outside the skeleton table, and says nothing
// about bytes after the last entry asked for. Detecting damage to
// stored bytes is the CRC, hash-chain and Merkle layers' job.
type Cursor struct {
	c     *Codec
	r     bitReader
	left  int  // entries not yet yielded
	prevR bool // the last entry yielded was an R node
}

// Reset points the cursor at the start of an encoded label of codec c
// and reads its entry count — in place, so a query's two cursors live
// in its frame and are never copied.
func (cu *Cursor) Reset(c *Codec, data []byte) error {
	*cu = Cursor{c: c, r: bitReader{data: data}}
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
			if r.overrun() {
				return false, ErrTruncated
			}
			return false, errIndexCode
		}
	default:
		if r.left() <= 2+maxIndexZeros {
			return false, ErrTruncated
		}
		return false, errIndexCode
	}
	*e = Entry{Index: int32(idx), Type: NodeType(hdr), Skl: spec.NoRef}
	r.need(cu.c.ptrBits + 3)
	if e.Type == N {
		g := r.take(cu.c.ptrBits)
		if g >= uint64(len(cu.c.refs)) {
			return false, fmt.Errorf("label: skeleton pointer %d out of range", g)
		}
		e.Skl = cu.c.refs[g]
	}
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
	}
	return Label{Entries: entries}, nil
}
