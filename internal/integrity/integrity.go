// Package integrity holds the hash primitives of the tamper-evidence
// story: the SHA-256 hash chain over a session's record stream and the
// Merkle tree over arena label extents. Everything here is pure
// computation over bytes — the package knows nothing about files, logs,
// or sessions, so the WAL, the arena, and the offline auditor can all
// share one definition of "the chain" without an import cycle.
//
// The chain. A head commits to the event stream, not to the frames it
// was logged in:
//
//	head(0) = 00…00 (32 zero bytes)
//	head(n) = SHA-256(record(1) || … || record(n))
//
// where record(i) is the i-th record's payload bytes, without any frame
// header. A record ends where its fields do and is the same bytes in
// whatever frame carries it, so a batch frame and one-event frames of the
// same records have one head, and every holder of the same history — the
// binary ingest wire, the primary's WAL, the shipped tail, a follower's
// WAL — computes it; a single 32-byte head commits to the entire prefix:
// rewriting any committed record (even CRC-consistently) changes every
// head from its record on. (Builds before WFSNAP10 chained whole frames.)
//
// The Merkle tree. Arena snapshots commit to their label extents with
// a Merkle root so an auditor can verify the label region against one
// hash (and, later, prove single extents without shipping the whole
// region). A leaf covers a page of 64 consecutive extents, in the
// arena's index order (ascending vertex); the last page may be short.
// Leaves and interior nodes are domain-separated:
//
//	leaf(page) = SHA-256(0x00 || for each entry: uint32le(v) || uvarint(len(label)) || label)
//	node(a, b) = SHA-256(0x01 || a || b)
//
// The length prefix fixes where one label ends and the next begins, and
// the vertex id binds each label to its vertex, so a page's bytes decode
// to exactly one list of entries. An unbalanced right edge is bagged by
// folding the pending subtree roots right to left, so the root is
// deterministic for every label count; zero labels hash to the zero
// head.
package integrity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Head is a 32-byte SHA-256 digest: a chain head or a Merkle root.
// The zero value is the chain's genesis (the head before any record)
// and the Merkle root of an empty tree.
type Head [sha256.Size]byte

// IsZero reports whether the head is the all-zero genesis value.
func (h Head) IsZero() bool { return h == Head{} }

// String renders the head as lowercase hex, the wire and CLI form.
func (h Head) String() string { return hex.EncodeToString(h[:]) }

// Chainer is a running chain: one SHA-256 digest frame payloads are
// written into in log order, a head finalized from it on demand. It
// allocates nothing after NewChainer and is not safe for concurrent use.
type Chainer struct {
	d     hash.Hash
	head  Head
	fresh bool // head covers everything added
}

// NewChainer returns a chain at genesis, the zero head.
func NewChainer() *Chainer { return &Chainer{d: sha256.New(), fresh: true} }

// Add appends a frame payload — a run of whole records — to the chain.
func (c *Chainer) Add(payload []byte) {
	if len(payload) > 0 {
		c.d.Write(payload)
		c.fresh = false
	}
}

// Head returns the head over every record added so far.
func (c *Chainer) Head() Head {
	if !c.fresh {
		c.d.Sum(c.head[:0])
		c.fresh = true
	}
	return c.head
}

// Extend adds a raw WAL frame's records — what follows its 8-byte header
// — to the chain and returns the new head. prev must be the head the
// chain is at, the zero head on a new Chainer; Extend panics otherwise.
func (c *Chainer) Extend(prev Head, frame []byte) Head {
	if prev != c.Head() {
		panic("integrity: Extend from a head other than the chain's own")
	}
	c.Add(frame[8:])
	return c.Head()
}

// pageLabels is how many consecutive label extents one leaf covers. It
// is part of the format: another value gives every snapshot another
// root.
const pageLabels = 64

// Merkle accumulates label extents left to right and yields the root.
// It buffers the page in progress and keeps one pending subtree root per
// set bit of the complete-page count, both sized once, so it allocates
// nothing per label and its memory does not grow with the label count.
type Merkle struct {
	page   []byte // leaf hash input of the page in progress: 0x00, then its entries
	inPage int    // entries in the page in progress
	stack  []Head // pending subtree roots of complete pages, biggest first
	pages  uint64 // complete pages
}

// NewMerkle returns an empty accumulator. Its page buffer holds a page
// of labels up to 24 bytes long; longer ones grow it, and every later
// page reuses what it grew to.
func NewMerkle() *Merkle {
	return &Merkle{
		page:  append(make([]byte, 0, 1+pageLabels*(4+1+24)), 0x00),
		stack: make([]Head, 0, 64), // one per bit of the page count: never outgrown
	}
}

// AddLabel appends vertex v's label extent, the next in index order.
func (m *Merkle) AddLabel(v uint32, label []byte) {
	m.page = binary.LittleEndian.AppendUint32(m.page, v)
	m.page = binary.AppendUvarint(m.page, uint64(len(label)))
	m.page = append(m.page, label...)
	if m.inPage++; m.inPage < pageLabels {
		return
	}
	m.stack = append(m.stack, sha256.Sum256(m.page))
	m.page, m.inPage = m.page[:1], 0
	m.pages++
	// Each trailing zero bit of the new page count is a completed pair:
	// merge equal-sized subtrees bottom-up.
	for n := m.pages; n&1 == 0; n >>= 1 {
		a, b := m.stack[len(m.stack)-2], m.stack[len(m.stack)-1]
		m.stack = append(m.stack[:len(m.stack)-2], m.node(a, b))
	}
}

// Root bags the pending subtrees, and the partial page's leaf after
// them, right to left and returns the root. The accumulator stays
// usable: more labels may be added after a Root call (the root of every
// prefix is well defined).
func (m *Merkle) Root() Head {
	i := len(m.stack) - 1
	var root Head
	switch {
	case m.inPage > 0:
		root = sha256.Sum256(m.page)
	case i < 0:
		return Head{}
	default:
		root, i = m.stack[i], i-1
	}
	for ; i >= 0; i-- {
		root = m.node(m.stack[i], root)
	}
	return root
}

func (m *Merkle) node(a, b Head) Head {
	var in [1 + 2*sha256.Size]byte
	in[0] = 0x01
	copy(in[1:], a[:])
	copy(in[1+sha256.Size:], b[:])
	return sha256.Sum256(in[:])
}
