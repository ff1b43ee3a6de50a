// Package integrity holds the hash primitives of the tamper-evidence
// story: the SHA-256 hash chain over WAL frames and the Merkle tree
// over arena label extents. Everything here is pure computation over
// bytes — the package knows nothing about files, logs, or sessions, so
// the WAL, the arena, and the offline auditor can all share one
// definition of "the chain" without an import cycle.
//
// The chain. Every WAL frame — one batch of records — is hashed into
// a running head:
//
//	head(0) = 00…00 (32 zero bytes)
//	head(n) = SHA-256(head(n-1) || frame(n))
//
// where frame(n) is the n-th raw WAL frame — length, CRC, and payload,
// exactly the bytes on disk. Frames are byte-identical across
// the binary ingest wire, the primary's WAL, the shipped tail, and a
// follower's WAL, so every holder of the same history computes the
// same head, and a single 32-byte head commits to the entire prefix:
// rewriting any committed record (even CRC-consistently) changes every
// head from its frame on.
//
// The Merkle tree. Arena snapshots commit to their label extents with
// a Merkle root so an auditor can verify the label region against one
// hash (and, later, prove single extents without shipping the whole
// region). Leaves and interior nodes are domain-separated:
//
//	leaf(v, label) = SHA-256(0x00 || uint32le(v) || label)
//	node(a, b)     = SHA-256(0x01 || a || b)
//
// Leaves are added in ascending vertex order (the arena's index
// order). An unbalanced right edge is bagged by folding the pending
// subtree roots right to left, so the root is deterministic for every
// leaf count; zero leaves hash to the zero head.
package integrity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Head is a 32-byte SHA-256 digest: a chain head or a Merkle root.
// The zero value is the chain's genesis (the head before any record)
// and the Merkle root of an empty tree.
type Head [sha256.Size]byte

// IsZero reports whether the head is the all-zero genesis value.
func (h Head) IsZero() bool { return h == Head{} }

// String renders the head as lowercase hex, the wire and CLI form.
func (h Head) String() string { return hex.EncodeToString(h[:]) }

// ParseHead parses the lowercase-hex wire form produced by String.
func ParseHead(s string) (Head, error) {
	var h Head
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return Head{}, fmt.Errorf("integrity: %q is not a 64-digit hex head", s)
	}
	copy(h[:], b)
	return h, nil
}

// Chainer extends a hash chain over raw WAL frames. It exists to
// amortize the hash input buffer across a batch: one Chainer, reused
// frame after frame, allocates nothing per extension once the buffer
// has grown to the largest frame. A Chainer is not safe for concurrent
// use.
type Chainer struct {
	buf []byte // prev || frame of the extension in progress
}

// NewChainer returns a reusable chain hasher.
func NewChainer() *Chainer { return &Chainer{} }

// Extend folds one raw frame into the chain: SHA-256(prev || frame).
func (c *Chainer) Extend(prev Head, frame []byte) Head {
	c.buf = append(append(c.buf[:0], prev[:]...), frame...)
	return sha256.Sum256(c.buf)
}

// Extend is the one-shot form of Chainer.Extend.
func Extend(prev Head, frame []byte) Head {
	return NewChainer().Extend(prev, frame)
}

// Merkle accumulates leaves left to right and yields the root. It
// keeps one pending subtree root per set bit of the leaf count, so
// memory is O(log n) regardless of how many leaves stream through.
type Merkle struct {
	buf   []byte // leaf hash input, reused leaf after leaf
	stack []Head // pending subtree roots, biggest first
	count uint64
}

// NewMerkle returns an empty accumulator.
func NewMerkle() *Merkle { return &Merkle{} }

// LabelLeaf hashes one label extent into its leaf.
func (m *Merkle) LabelLeaf(vertex uint32, label []byte) Head {
	m.buf = append(binary.LittleEndian.AppendUint32(append(m.buf[:0], 0x00), vertex), label...)
	return sha256.Sum256(m.buf)
}

// Add appends one leaf (use LabelLeaf to make one from an extent).
func (m *Merkle) Add(leaf Head) {
	m.stack = append(m.stack, leaf)
	m.count++
	// Each trailing zero bit of the new count is a completed pair:
	// merge equal-sized subtrees bottom-up.
	for n := m.count; n&1 == 0; n >>= 1 {
		a, b := m.stack[len(m.stack)-2], m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-2]
		m.stack = append(m.stack, m.node(a, b))
	}
}

// Root bags the pending subtrees right to left and returns the root.
// The accumulator stays usable: more leaves may be added after a Root
// call (the root of every prefix is well defined).
func (m *Merkle) Root() Head {
	if len(m.stack) == 0 {
		return Head{}
	}
	root := m.stack[len(m.stack)-1]
	for i := len(m.stack) - 2; i >= 0; i-- {
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
