package api

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"

	"wfreach/internal/graph"
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
// AppendFrame writes the log's compact record kinds (the predecessor
// count in the kind byte, each predecessor as a delta from the event's
// vertex); FrameReader also takes the classic kinds older SDKs send,
// and teed they stay classic. Both are internal/wal's, which writes,
// measures and reads every payload field.

// FrameHeaderSize is the fixed frame prefix size in bytes.
const FrameHeaderSize = wal.FrameHeaderSize

// MaxFramePayload caps one frame's payload, shared with the WAL
// format.
const MaxFramePayload = wal.MaxPayload

// AppendFrame encodes one wire event as a binary ingest frame onto
// buf and returns the extended slice. The bytes are exactly what the
// server's write-ahead log stores for the same event, written straight
// from the event's fields. Malformed events (see Event.Record) are
// rejected with buf unchanged.
func AppendFrame(buf []byte, ev Event) ([]byte, error) {
	if err := ev.check(); err != nil {
		return buf, err
	}
	var out []byte
	var err error
	if ev.Name != "" {
		out, err = wal.AppendNamedFrame(buf, ev.V, ev.Name, ev.Preds)
	} else {
		out, err = wal.AppendRefFrame(buf, ev.V, *ev.Graph, *ev.Vertex, ev.Preds)
	}
	if err != nil {
		return buf, Errorf(CodeBadFrame, "%v", err)
	}
	return out, nil
}

// frameLen is the length pass of AppendFrame: the exact number of bytes
// it appends for ev, when it accepts ev.
func frameLen(ev Event) int {
	switch {
	case ev.Name != "":
		return wal.NamedFrameLen(ev.V, ev.Name, ev.Preds)
	case ev.Graph != nil && ev.Vertex != nil:
		return wal.RefFrameLen(ev.V, *ev.Graph, *ev.Vertex, ev.Preds)
	}
	return 0 // malformed: AppendFrame refuses it
}

// AppendFrames encodes a batch of wire events onto buf, one frame
// each — an ingest body. A length pass first reserves exactly the room
// the body needs, so buf grows at most once. On a malformed event it
// stops with that event's error and buf unchanged.
func AppendFrames(buf []byte, events []Event) ([]byte, error) {
	n := 0
	for i := range events {
		n += frameLen(events[i])
	}
	out := slices.Grow(buf, n)
	for i := range events {
		var err error
		if out, err = AppendFrame(out, events[i]); err != nil {
			return buf, err
		}
	}
	return out, nil
}

// FrameReader decodes a stream of binary ingest frames. Any damage —
// a truncated frame, an oversized length prefix, a CRC mismatch, an
// undecodable payload — is a *Error with CodeBadFrame; unlike the
// WAL's tail-tolerant Scan, a wire stream has no excuse for
// corruption mid-body.
//
// The reader owns two buffers its results alias. The frame slice is
// reused by the next Next. The records' predecessor slices sit in one
// arena that only grows until Release (or Reset) rewinds it, so a
// caller may hold a batch of records, hand them on, and release them
// together: past its warm-up a released reader decodes without
// allocating. One that is never released keeps every record valid and
// simply keeps growing.
type FrameReader struct {
	br    *bufio.Reader
	fr    *wal.FrameReader
	preds []graph.VertexID
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	br := bufio.NewReaderSize(r, 64<<10)
	return &FrameReader{br: br, fr: wal.NewFrameReader(br)}
}

// Reset points the reader at a new stream, keeping its buffers, and
// releases the records of the old one. Reset(nil) drops the reference
// to a finished stream.
func (fr *FrameReader) Reset(r io.Reader) {
	fr.br.Reset(r)
	fr.fr.Reset(fr.br)
	fr.Release()
}

// Release ends the life of every record returned so far: their
// predecessor slices will be overwritten by the records that follow.
func (fr *FrameReader) Release() { fr.preds = fr.preds[:0] }

// Next returns the next record and its raw frame bytes (header plus
// payload). The frame slice is reused by the following Next call —
// callers that keep it must copy; the record's predecessors are valid
// until Release. A clean end of stream returns io.EOF.
func (fr *FrameReader) Next() (wal.Record, []byte, error) {
	frame, err := fr.fr.Next()
	if err == io.EOF {
		return wal.Record{}, nil, io.EOF
	}
	if err != nil {
		return wal.Record{}, nil, Errorf(CodeBadFrame, "bad frame: %v", err)
	}
	rec, err := wal.DecodeRecordInto(&fr.preds, frame[FrameHeaderSize:])
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
		fr.Release() // the wire event has its own copy
	}
}
