package api

import (
	"bufio"
	"encoding/binary"
	"io"

	"wfreach/internal/graph"
	"wfreach/internal/wal"
)

// The replication surface of /v1: WAL shipping plus status/promote.
//
//	GET  /v1/sessions/{name}/wal?from={seq}&wait={bool}   tail the session's WAL
//	GET  /v1/sessions/{name}/spec                         the session's spec XML
//	GET  /v1/replication/status                           ReplicationStatus
//	POST /v1/replication/promote                          follower → writable
//
// A tail response (ContentTypeWAL) is a stream of entries, each an
// 8-byte little-endian absolute sequence number followed by one raw
// WAL frame — the identical bytes the primary's log holds, which are
// the identical bytes the binary ingest route accepted. A follower
// appends the shipped frames to its own log verbatim, so replication
// preserves the frame-identity chain end to end: ingest frame ≡ WAL
// record ≡ shipped frame ≡ replica WAL record.

// ContentTypeWAL marks a WAL tail stream response.
const ContentTypeWAL = "application/x-wfreach-wal"

// Replication roles reported by ReplicationStatus.
const (
	// RolePrimary is a writable server (the default; every server not
	// following another is a primary, whether or not anything tails it).
	RolePrimary = "primary"
	// RoleFollower is a read-only replica tailing a primary.
	RoleFollower = "follower"
)

// ReplicationStatus is the body of GET /v1/replication/status.
type ReplicationStatus struct {
	// Role is RolePrimary or RoleFollower.
	Role string `json:"role"`
	// Primary is the primary's base URL (followers only).
	Primary string `json:"primary,omitempty"`
	// Sessions reports per-session replication progress, sorted by
	// name.
	Sessions []SessionReplication `json:"sessions"`
}

// SessionReplication is one session's replication state on this
// server. WALSeq has the same meaning on both roles — the sequence of
// the last event committed to this server's own WAL — so a session's
// replica lag is primary.WALSeq − follower.WALSeq.
type SessionReplication struct {
	// Name is the session's registry name.
	Name string `json:"name"`
	// WALSeq is the last committed sequence in this server's WAL for
	// the session (0 for memory-only sessions).
	WALSeq int64 `json:"wal_seq"`
	// Durable reports whether the session has a write-ahead log here.
	Durable bool `json:"durable,omitempty"`
	// Error is the follower's last tail/apply failure for the session,
	// if any (cleared on recovery).
	Error string `json:"error,omitempty"`
}

// TailSeqSize is the fixed per-entry prefix of a tail stream: the
// absolute sequence number, uint64 little-endian.
const TailSeqSize = 8

// AppendTailEntry encodes one tail-stream entry — the sequence prefix
// plus the raw WAL frame — onto buf and returns the extended slice.
func AppendTailEntry(buf []byte, seq int64, frame []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seq))
	return append(buf, frame...)
}

// TailEntry is one decoded tail-stream entry.
type TailEntry struct {
	// Seq is the record's absolute sequence in the primary's WAL.
	Seq int64
	// Frame is the raw WAL frame (header plus payload), CRC-verified.
	// The slice is reused by the reader's following Next call.
	Frame []byte
	// Record is the decoded event.
	Record wal.Record
}

// TailReader decodes a WAL tail stream entry by entry. Damage — a
// truncated entry, a CRC mismatch, an undecodable payload — is a
// *Error with CodeBadFrame; a cleanly ended stream returns io.EOF
// (the primary closed the response; reconnect and resume from the
// last applied sequence).
//
// Like FrameReader, the reader owns what its entries alias: Frame is
// reused by the next Next, and the records' predecessor slices share
// one arena that grows until Release rewinds it.
type TailReader struct {
	br    *bufio.Reader
	fr    *wal.FrameReader
	preds []graph.VertexID
}

// NewTailReader wraps r for entry-by-entry decoding.
func NewTailReader(r io.Reader) *TailReader {
	br := bufio.NewReaderSize(r, 64<<10)
	return &TailReader{br: br, fr: wal.NewFrameReader(br)}
}

// Buffered reports whether at least one byte of a further entry has
// already arrived — the consumer's cue that it can keep batching
// without blocking on the network.
func (t *TailReader) Buffered() bool { return t.br.Buffered() > 0 }

// Release ends the life of every entry's record returned so far: their
// predecessor slices will be overwritten by the entries that follow.
func (t *TailReader) Release() { t.preds = t.preds[:0] }

// Next returns the next entry. Entry.Frame is reused by the following
// Next call; consumers that keep it must copy. The record's
// predecessors are valid until Release.
func (t *TailReader) Next() (TailEntry, error) {
	// The sequence prefix is read here, the frame by the shared reader
	// on the same buffered stream (it never reads ahead of its frame).
	prefix, err := t.br.Peek(TailSeqSize)
	if err != nil {
		if err == io.EOF && len(prefix) == 0 {
			return TailEntry{}, io.EOF
		}
		return TailEntry{}, Errorf(CodeBadFrame, "truncated tail entry: %v", err)
	}
	seq := int64(binary.LittleEndian.Uint64(prefix))
	t.br.Discard(TailSeqSize)
	if seq <= 0 {
		return TailEntry{}, Errorf(CodeBadFrame, "tail entry sequence %d is not positive", seq)
	}
	frame, err := t.fr.Next()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return TailEntry{}, Errorf(CodeBadFrame, "tail frame at seq %d: %v", seq, err)
	}
	rec, err := wal.DecodeRecordInto(&t.preds, frame[FrameHeaderSize:])
	if err != nil {
		return TailEntry{}, Errorf(CodeBadFrame, "tail frame at seq %d: %v", seq, err)
	}
	return TailEntry{Seq: seq, Frame: frame, Record: rec}, nil
}
