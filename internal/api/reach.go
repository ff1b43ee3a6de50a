package api

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The binary form of batch reach (ContentTypeReach), the form the SDK
// speaks; the JSON form (BatchReachRequest/BatchReachResponse) carries
// the same questions and answers for curl and for reading. Byte by byte
// in docs/API.md, "Batch reachability".
//
// Request:
//
//	uvarint  n, the number of pairs
//	n ×      varint from, varint to (zig-zag, so every int32 the JSON
//	         form accepts has an encoding: a negative or unlabeled vertex
//	         is that pair's inline failure, never the batch's)
//
// Response (200 only; every request-level error is the JSON
// ErrorResponse with its status, whichever form asked):
//
//	uvarint  n, the number of answers — the request's n
//	⌈n/8⌉    answer bitmap (ReachBits): pair i reachable ⇔ bit i%8,
//	         least significant first, of byte i/8; padding bits zero
//	uvarint  k, the number of failed pairs
//	k ×      uvarint index (strictly ascending, its answer bit zero),
//	         uvarint length + error code (non-empty),
//	         uvarint length + message
//
// Both decoders treat their input as hostile: a count is checked
// against the bytes that are there before anything is sized by it, and
// on any error the caller's buffer comes back as it was.

// MaxReachRequestBytes bounds a binary batch-reach request of
// MaxReachPairs pairs: the count and two five-byte varints a pair.
const MaxReachRequestBytes = 3 + 2*binary.MaxVarintLen32*MaxReachPairs

// ReachBits is the answer bitmap of a batch: one bit per pair.
type ReachBits []byte

// Reset returns the bitmap sized for n pairs with every answer false,
// reusing b's array when it is large enough.
func (b ReachBits) Reset(n int) ReachBits { return append(b[:0], make([]byte, (n+7)/8)...) }

// Set marks pair i reachable.
func (b ReachBits) Set(i int) { b[i>>3] |= 1 << (i & 7) }

// Get reports whether pair i is marked reachable.
func (b ReachBits) Get(i int) bool { return b[i>>3]>>(i&7)&1 != 0 }

// ReachFailure is one pair of a batch that could not be answered: what
// ReachAnswer carries in Code and Error, by the pair's index.
type ReachFailure struct {
	Index   int
	Code    ErrorCode
	Message string
}

// AppendReachRequest encodes pairs as a binary batch-reach request
// onto dst, growing it at most once.
func AppendReachRequest(dst []byte, pairs []ReachPair) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+2*binary.MaxVarintLen32*len(pairs))
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for _, p := range pairs {
		dst = binary.AppendVarint(dst, int64(p.From))
		dst = binary.AppendVarint(dst, int64(p.To))
	}
	return dst
}

// DecodeReachRequestInto decodes a binary batch-reach request,
// appending its pairs to dst. A batch past MaxReachPairs is refused
// like a malformed one.
func DecodeReachRequestInto(dst []ReachPair, body []byte) ([]ReachPair, error) {
	d := reachDecoder{b: body}
	n := d.count(2, "pair") // a pair is two bytes at least
	if n > MaxReachPairs {
		d.fail("batch of %d pairs exceeds the %d-pair cap", n, MaxReachPairs)
	}
	if d.err != nil {
		return dst, d.err
	}
	out := slices.Grow(dst, n)
	for range n {
		out = append(out, ReachPair{From: d.vertex(), To: d.vertex()})
	}
	if d.end(); d.err != nil {
		return dst, d.err
	}
	return out, nil
}

// AppendReachResponse encodes the answers to n pairs — their bitmap and
// their failures, ascending by index — as a binary batch-reach response
// onto dst.
func AppendReachResponse(dst []byte, n int, bits ReachBits, fails []ReachFailure) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, bits[:(n+7)/8]...)
	dst = binary.AppendUvarint(dst, uint64(len(fails)))
	for _, f := range fails {
		dst = binary.AppendUvarint(dst, uint64(f.Index))
		dst = binary.AppendUvarint(dst, uint64(len(f.Code)))
		dst = append(dst, f.Code...)
		dst = binary.AppendUvarint(dst, uint64(len(f.Message)))
		dst = append(dst, f.Message...)
	}
	return dst
}

// DecodeReachResponseInto decodes the binary response to a request for
// pairs, appending one answer per pair to answers: From and To from the
// pair, the rest from the body. A response for another number of pairs
// is an error, like every other departure from the format.
func DecodeReachResponseInto(answers []ReachAnswer, pairs []ReachPair, body []byte) ([]ReachAnswer, error) {
	d := reachDecoder{b: body}
	if n := d.uvarint(); n != uint64(len(pairs)) {
		d.fail("%d answers for %d pairs", n, len(pairs))
	}
	bits := ReachBits(d.bytes(uint64(len(pairs)+7) / 8))
	if pad := len(pairs) & 7; d.err == nil && pad != 0 && bits[len(bits)-1]>>pad != 0 {
		d.fail("padding bits set in the answer bitmap")
	}
	k := d.count(3, "failure") // index, code length, message length
	if k > len(pairs) {
		d.fail("%d failures for %d pairs", k, len(pairs))
	}
	if d.err != nil {
		return answers, d.err
	}
	base := len(answers)
	out := slices.Grow(answers, len(pairs))
	for i, p := range pairs {
		out = append(out, ReachAnswer{From: p.From, To: p.To, Reachable: bits.Get(i)})
	}
	prev := -1
	for range k {
		idx := d.uvarint()
		code := d.bytes(d.uvarint())
		msg := d.bytes(d.uvarint())
		switch {
		case d.err != nil:
		case idx >= uint64(len(pairs)) || int(idx) <= prev:
			d.fail("failure index %d after %d, of %d pairs", idx, prev, len(pairs))
		case len(code) == 0:
			d.fail("failure %d has no error code", idx)
		case bits.Get(int(idx)):
			d.fail("pair %d is both answered and failed", idx)
		}
		if d.err != nil {
			return answers, d.err
		}
		prev = int(idx)
		out[base+prev].Code, out[base+prev].Error = ErrorCode(code), string(msg)
	}
	if d.end(); d.err != nil {
		return answers, d.err
	}
	return out, nil
}

// reachDecoder walks one body. Its first error sticks: every read after
// it returns zero, so callers check once per step that matters.
type reachDecoder struct {
	b   []byte
	err error
}

func (d *reachDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("api: reach body: "+format, args...)
	}
}

func (d *reachDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count and refuses one the remaining bytes
// cannot hold at minSize bytes an element.
func (d *reachDecoder) count(minSize int, what string) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.fail("%s count %d, but only %d bytes follow", what, n, len(d.b))
		return 0
	}
	return int(n)
}

// vertex reads one zig-zag vertex id and refuses one past int32.
func (d *reachDecoder) vertex() int32 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("vertex id %d does not fit 32 bits", v)
		return 0
	}
	d.b = d.b[n:]
	return int32(v)
}

func (d *reachDecoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("field of %d bytes, but only %d follow", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *reachDecoder) end() {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
}
