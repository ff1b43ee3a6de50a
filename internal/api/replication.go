package api

import (
	"bufio"
	"encoding/binary"
	"io"

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
// 8-byte little-endian absolute sequence number — that of the frame's
// first record — followed by one raw WAL frame: the identical bytes the
// primary's log holds, which are the identical bytes the binary ingest
// route accepted. A follower appends the shipped frames to its own log
// verbatim, so replication preserves the frame-identity chain end to
// end: ingest frame ≡ WAL frame ≡ shipped frame ≡ replica WAL frame.

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
	// the session.
	WALSeq int64 `json:"wal_seq"`
	// Error is the follower's last tail/apply failure for the session,
	// if any (cleared on recovery).
	Error string `json:"error,omitempty"`
}

// TailSeqSize is the fixed per-entry prefix of a tail stream: the
// absolute sequence number of the frame's first record, uint64
// little-endian.
const TailSeqSize = 8

// AppendTailEntry encodes one tail-stream entry — the sequence prefix
// plus the raw WAL frame — onto buf and returns the extended slice.
func AppendTailEntry(buf []byte, seq int64, frame []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seq))
	return append(buf, frame...)
}

// TailEntry is one record of a tail stream.
type TailEntry struct {
	// Seq is the record's absolute sequence in the primary's WAL.
	Seq int64
	// Frame is the raw WAL frame (header plus payload), CRC-verified,
	// on the record that opens it; nil on the frame's further records.
	// The slice is reused once the frame's records are all returned.
	Frame []byte
	// Record is the decoded event.
	Record wal.Record
}

// TailReader decodes a WAL tail stream record by record. Like
// FrameReader it checks each frame whole — CRC and every record —
// before returning its first record. Damage — a truncated entry, a CRC
// mismatch, an undecodable payload — is a *Error with CodeBadFrame; a
// cleanly ended stream returns io.EOF (the primary closed the response;
// reconnect and resume from the last applied sequence).
//
// Like FrameReader, the reader owns what its entries alias: Frame is
// reused once its records are returned, and the records' predecessor
// slices share one arena that grows until Release rewinds it.
type TailReader struct {
	br  *bufio.Reader
	fr  *FrameReader
	seq int64 // sequence of the next record of the current frame
}

// NewTailReader wraps r for entry-by-entry decoding.
func NewTailReader(r io.Reader) *TailReader {
	br := bufio.NewReaderSize(r, 64<<10)
	fr := &FrameReader{br: br, fr: wal.NewFrameReader(br)}
	return &TailReader{br: br, fr: fr}
}

// Buffered reports whether more of the stream is at hand without
// blocking on the network: a record of the current frame still to come,
// or a byte of a further entry already arrived — the consumer's cue
// that it can keep batching.
func (t *TailReader) Buffered() bool { return t.fr.Pending() > 0 || t.br.Buffered() > 0 }

// Pending reports how many records of the current frame are still to
// be returned (see FrameReader.Pending).
func (t *TailReader) Pending() int { return t.fr.Pending() }

// Release ends the life of every entry's record returned so far (see
// FrameReader.Release).
func (t *TailReader) Release() { t.fr.Release() }

// Next returns the next entry. Entry.Frame is reused once its records
// are returned; consumers that keep it must copy. The record's
// predecessors are valid until Release.
func (t *TailReader) Next() (TailEntry, error) {
	if t.fr.Pending() > 0 {
		rec, _, _ := t.fr.Next()
		t.seq++
		return TailEntry{Seq: t.seq - 1, Record: rec}, nil
	}
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
	rec, frame, err := t.fr.Next()
	switch {
	case err == io.EOF:
		return TailEntry{}, Errorf(CodeBadFrame, "tail frame at seq %d: %v", seq, io.ErrUnexpectedEOF)
	case err != nil:
		return TailEntry{}, Errorf(CodeBadFrame, "tail frame at seq %d: %s", seq, AsError(err, CodeBadFrame).Message)
	}
	t.seq = seq + 1
	return TailEntry{Seq: seq, Frame: frame, Record: rec}, nil
}
