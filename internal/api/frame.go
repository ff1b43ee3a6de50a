package api

import (
	"bufio"
	"bytes"
	"errors"
	"io"

	"wfreach/internal/wal"
)

// The binary ingest frame is deliberately byte-identical to the
// write-ahead-log record frame (see internal/wal and the wire-format
// appendix of ARCHITECTURE.md):
//
//	uint32 LE  payload length N (1 ≤ N ≤ MaxFramePayload)
//	uint32 LE  CRC-32 (IEEE) of the payload
//	N bytes    payload (one event: kind byte + uvarint fields)
//
// A ContentTypeFrame ingest body is a plain concatenation of frames.
// Because the formats are identical, a durable server tees each
// accepted frame to its session log as-is — the per-event
// JSON-decode/WAL-re-encode cost of the JSON route disappears.

// FrameHeaderSize is the fixed frame prefix size in bytes.
const FrameHeaderSize = wal.FrameHeaderSize

// MaxFramePayload caps one frame's payload, shared with the WAL
// format.
const MaxFramePayload = wal.MaxPayload

// AppendFrame encodes one wire event as a binary ingest frame onto
// buf and returns the extended slice. The bytes are exactly what the
// server's write-ahead log stores for the same event. Malformed
// events (see Event.Record) are rejected with buf unchanged.
func AppendFrame(buf []byte, ev Event) ([]byte, error) {
	rec, err := ev.Record()
	if err != nil {
		return buf, err
	}
	out, err := wal.AppendFrame(buf, rec)
	if err != nil {
		return buf, Errorf(CodeBadFrame, "%v", err)
	}
	return out, nil
}

// FrameReader decodes a stream of binary ingest frames. Any damage —
// a truncated frame, an oversized length prefix, a CRC mismatch, an
// undecodable payload — is a *Error with CodeBadFrame; unlike the
// WAL's tail-tolerant Scan, a wire stream has no excuse for
// corruption mid-body.
type FrameReader struct {
	fr *wal.FrameReader
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{fr: wal.NewFrameReader(bufio.NewReaderSize(r, 64<<10))}
}

// Next returns the next record and its raw frame bytes (header plus
// payload). The frame slice is reused by the following Next call —
// callers that keep it must copy. A clean end of stream returns
// io.EOF.
func (fr *FrameReader) Next() (wal.Record, []byte, error) {
	frame, err := fr.fr.Next()
	if err == io.EOF {
		return wal.Record{}, nil, io.EOF
	}
	if err != nil {
		return wal.Record{}, nil, Errorf(CodeBadFrame, "bad frame: %v", err)
	}
	rec, err := wal.DecodeRecord(frame[FrameHeaderSize:])
	if err != nil {
		return wal.Record{}, nil, Errorf(CodeBadFrame, "bad frame: %v", err)
	}
	return rec, frame, nil
}

// DecodeFrames decodes a complete in-memory frame stream into wire
// events — the inverse of encoding each event with AppendFrame onto
// one buffer.
func DecodeFrames(b []byte) ([]Event, error) {
	fr := NewFrameReader(bytes.NewReader(b))
	var out []Event
	for {
		rec, _, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, FromRecord(rec))
	}
}
