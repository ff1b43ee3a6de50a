package api

import (
	"bufio"
	"io"
	"slices"

	"wfreach/internal/graph"
	"wfreach/internal/wal"
)

// The binary ingest frame is deliberately byte-identical to the
// write-ahead-log frame (see internal/wal and the wire-format appendix
// of ARCHITECTURE.md):
//
//	uint32 LE  payload length N (1 ≤ N ≤ MaxFramePayload)
//	uint32 LE  CRC-32 (IEEE) of the payload
//	N bytes    payload (a run of events: kind byte + uvarint fields each)
//
// A ContentTypeFrame ingest body is a plain concatenation of frames, and
// AppendFrames puts a whole batch in one of them, starting another only
// where MaxFramePayload forces it. Because the formats are identical, a
// durable server tees each accepted frame to its session log as-is — the
// per-event JSON-decode/WAL-re-encode cost of the JSON route disappears,
// and so do the per-event header and chain step. AppendFrames writes the
// log's compact record kinds (the predecessor count in the kind byte,
// each predecessor as a delta from the event's vertex); FrameReader also
// takes one-event frames and the classic kinds older SDKs send, and teed
// they stay as they came. Both are internal/wal's, which writes,
// measures and reads every payload field.

// FrameHeaderSize is the fixed frame prefix size in bytes.
const FrameHeaderSize = wal.FrameHeaderSize

// MaxFramePayload caps one frame's payload, shared with the WAL
// format.
const MaxFramePayload = wal.MaxPayload

// AppendFrame encodes one wire event as a frame of its own onto buf and
// returns the extended slice. The bytes are exactly what the server's
// write-ahead log stores for a batch of that one event, written straight
// from the event's fields. Malformed events (see Event.Record) are
// rejected with buf unchanged.
func AppendFrame(buf []byte, ev Event) ([]byte, error) {
	buf, _, err := AppendEvent(buf, -1, ev)
	return buf, err
}

// AppendEvent is wal.AppendRecord on a wire event: it appends ev to the
// frame that starts at buf[open:], or to a new frame when open is
// negative or the open frame's payload would pass MaxFramePayload, and
// returns the extended slice with the offset of the frame ev went into
// — the open for the batch's next event. A batch built event by event
// this way is AppendFrames' body. A malformed event is rejected with
// buf and open unchanged.
func AppendEvent(buf []byte, open int, ev Event) ([]byte, int, error) {
	if err := ev.check(); err != nil {
		return buf, open, err
	}
	var out []byte
	var err error
	if ev.Name != "" {
		out, open, err = wal.AppendNamedRecord(buf, open, ev.V, ev.Name, ev.Preds)
	} else {
		out, open, err = wal.AppendRefRecord(buf, open, ev.V, *ev.Graph, *ev.Vertex, ev.Preds)
	}
	if err != nil {
		return buf, open, Errorf(CodeBadFrame, "%v", err)
	}
	return out, open, nil
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

// AppendFrames encodes a batch of wire events onto buf as one frame — an
// ingest body — or as several where the batch's payload would pass
// MaxFramePayload. A length pass first reserves the room a one-frame
// body needs, so buf grows at most once short of that. On a malformed
// event it stops with that event's error and buf unchanged.
func AppendFrames(buf []byte, events []Event) ([]byte, error) {
	n := FrameHeaderSize
	for i := range events {
		l := frameLen(events[i])
		if l == 0 {
			break // malformed: the encoding pass stops here with its error
		}
		n += l - FrameHeaderSize
	}
	out := slices.Grow(buf, n)
	open := -1
	for i := range events {
		var err error
		if out, open, err = AppendEvent(out, open, events[i]); err != nil {
			return buf, err
		}
	}
	return out, nil
}

// FrameReader decodes a stream of binary ingest frames record by
// record. Each frame is checked whole before the first of its records
// is returned: its CRC, and that its payload decodes to a run of
// records with nothing left over. Any damage — a truncated frame, an
// oversized length prefix, a CRC mismatch, an undecodable payload — is a
// *Error with CodeBadFrame and costs the whole frame; unlike the WAL's
// tail-tolerant Scan, a wire stream has no excuse for corruption
// mid-body.
//
// The reader owns the buffers its results alias. The frame slice is
// reused once the frame's records have all been returned. The records'
// predecessor slices sit in one arena that only grows until Release (or
// Reset) rewinds it, so a caller may hold a batch of records, hand them
// on, and release them together: past its warm-up a
// released reader decodes without allocating. One that is never
// released keeps every record valid and simply keeps growing.
type FrameReader struct {
	br    *bufio.Reader
	fr    *wal.FrameReader
	preds []graph.VertexID
	recs  []wal.Record // the current frame's records
	next  int          // index in recs of the next one to return
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	br := bufio.NewReaderSize(r, 64<<10)
	return &FrameReader{br: br, fr: wal.NewFrameReader(br)}
}

// Reset points the reader at a new stream, keeping its buffers, and
// releases the records of the old one. Reset(nil) drops the reference
// to a finished stream. A record buffer a frame of many small records
// grew past maxIdleRecords is given up rather than kept.
func (fr *FrameReader) Reset(r io.Reader) {
	fr.br.Reset(r)
	fr.fr.Reset(fr.br)
	clear(fr.recs)
	fr.recs, fr.next = fr.recs[:0], 0
	if cap(fr.recs) > maxIdleRecords {
		fr.recs = nil
	}
	fr.Release()
}

// maxIdleRecords bounds the decoded-record buffer a FrameReader keeps
// across Reset: a 1 MiB frame can carry a quarter of a million records.
const maxIdleRecords = 4096

// Release ends the life of every record returned so far: their
// predecessor slices will be overwritten by the frames that follow. The
// current frame's records still to come are not touched: the arena is
// only written when the next frame is decoded.
func (fr *FrameReader) Release() { fr.preds = fr.preds[:0] }

// Pending reports how many records of the current frame are still to
// be returned: while it is not zero, the next record continues the
// frame of the last one.
func (fr *FrameReader) Pending() int { return len(fr.recs) - fr.next }

// Next returns the next record and, when the record opens a frame, that
// frame's raw bytes (header plus payload); for the frame's further
// records the slice is nil. The frame slice is reused once the frame's
// records are all returned — callers that keep it must copy; the
// record's predecessors are valid until Release. A clean end of stream
// returns io.EOF.
func (fr *FrameReader) Next() (wal.Record, []byte, error) {
	if fr.next < len(fr.recs) {
		fr.next++
		return fr.recs[fr.next-1], nil, nil
	}
	frame, err := fr.fr.Next()
	if err == io.EOF {
		return wal.Record{}, nil, io.EOF
	}
	if err == nil {
		fr.recs, err = wal.DecodePayload(fr.recs[:0], &fr.preds, frame[FrameHeaderSize:])
	}
	if err != nil {
		return wal.Record{}, nil, Errorf(CodeBadFrame, "bad frame: %v", err)
	}
	fr.next = 1
	return fr.recs[0], frame, nil
}
