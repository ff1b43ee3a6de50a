package label

import "encoding/binary"

// bitReader reads the MSB-first bit stream of an encoded label a word
// at a time: the unread bits sit left-aligned in a 64-bit window
// refilled with whole bytes from one 64-bit word at a time, so reading
// a field is a shift. Past its end the input reads as zero bytes;
// callers read a whole entry and ask overrun once.
type bitReader struct {
	data []byte
	end  int    // the bits of data that are the label's, before its stop bit
	pos  int    // next byte to load; past len(data) once zero bytes were supplied
	win  uint64 // unread bits, left-aligned
	n    uint   // unread bits in win; lower bits are zero or the stream's true next bits
}

// need makes the next k ≤ 57 bits available to take.
func (r *bitReader) need(k uint) {
	if r.n < k {
		r.fill()
	}
}

// take returns the next k ≤ 57 bits, which a need must have covered.
func (r *bitReader) take(k uint) uint64 {
	v := r.win >> (64 - k)
	r.skip(k)
	return v
}

// skip passes over the next k ≤ 57 bits, which a need must have
// covered.
func (r *bitReader) skip(k uint) {
	r.win <<= k
	r.n -= k
}

// fill tops the window up with as many whole bytes as fit, to at least
// 57 bits, from one 8-byte word: the next eight bytes while the input
// lasts, the tail followed by zero bytes over its last seven — a label
// is often shorter than eight bytes, so the tail is the common case.
// The load also ORs in the bits of a byte that only partly fits; they
// are the stream's true next bits, so loading them again later changes
// nothing. Out of line so that need inlines.
//
//go:noinline
func (r *bitReader) fill() {
	var word uint64
	switch rest := r.data[min(r.pos, len(r.data)):]; {
	case len(rest) >= 8:
		word = binary.BigEndian.Uint64(rest)
	case len(rest) >= 4:
		// Two overlapping loads, left-aligned; the bytes both hold are
		// the same bits.
		word = uint64(binary.BigEndian.Uint32(rest))<<32 |
			uint64(binary.BigEndian.Uint32(rest[len(rest)-4:]))<<(64-8*len(rest))
	case len(rest) >= 2:
		word = uint64(binary.BigEndian.Uint16(rest))<<48 |
			uint64(binary.BigEndian.Uint16(rest[len(rest)-2:]))<<(64-8*len(rest))
	case len(rest) == 1:
		word = uint64(rest[0]) << 56
	}
	r.win |= word >> r.n
	whole := (64 - r.n) >> 3
	r.pos += int(whole)
	r.n += whole << 3
}

// left returns the number of the label's bits not yet read; negative
// once more bits have been read than it holds.
func (r *bitReader) left() int { return r.end - (r.pos*8 - int(r.n)) }

// overrun reports whether more bits have been read than the label holds.
func (r *bitReader) overrun() bool { return r.left() < 0 }

// bitWriter packs MSB-first fields into a buffer the caller sized from
// the label's exact length, storing 32 bits at a time.
type bitWriter struct {
	buf []byte
	pos int
	acc uint64 // pending bits, left-aligned
	n   uint   // pending bits in acc; below 32 between writes
}

// write appends the low k ≤ 32 bits of v.
func (w *bitWriter) write(v uint64, k uint) {
	w.acc |= v & (1<<k - 1) << (64 - w.n - k)
	w.n += k
	if w.n >= 32 {
		binary.BigEndian.PutUint32(w.buf[w.pos:], uint32(w.acc>>32))
		w.pos += 4
		w.acc <<= 32
		w.n -= 32
	}
}

// finish writes the stop bit and stores the last partial word,
// zero-padded to a whole byte.
func (w *bitWriter) finish() {
	w.acc |= 1 << (63 - w.n)
	for w.n++; w.n > 0; w.n -= min(w.n, 8) {
		w.buf[w.pos] = byte(w.acc >> 56)
		w.pos++
		w.acc <<= 8
	}
}
