package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"wfreach/internal/graph"
	"wfreach/internal/integrity"
)

// Walk reads a log file frame by frame from a byte offset, counting the
// records of the frames it yields and where its valid prefix ends. It
// ends at the first frame that is torn, fails its CRC or does not decode
// whole: the torn-tail rule, stated once for every reader of a log file
// — restore, the auditor, Scan, and the Tailer, which holds its walk to
// a live log's durable watermark. A Walk hashes nothing: a caller that
// needs the chain adds each Payload to it. Frame, Payload and Records
// are reused by the next step.
type Walk struct {
	fr    FrameReader // fr.r is nil once the walk has ended
	f     *os.File
	seq   int64
	end   int64
	frame []byte
	recs  []Record
	preds []graph.VertexID
	err   error
}

// OpenWalk opens the log at path for a walk from byte offset, a frame
// boundary. A missing file walks as empty, and one that cannot be read
// ends the walk before its first frame (Err). The caller closes the
// walk.
func OpenWalk(path string, offset int64) *Walk {
	// The scratch starts at a 256-event batch frame's records, so a
	// walk of a service's log decodes without growing it. The read
	// buffer is 64 KiB: a primary holds one walk open per follower.
	w := &Walk{end: offset, recs: make([]Record, 0, 256), preds: make([]graph.VertexID, 0, 512)}
	f, err := os.Open(path)
	if err == nil {
		w.f = f
		if _, err = f.Seek(offset, io.SeekStart); err == nil {
			w.fr = *NewFrameReader(bufio.NewReaderSize(f, 64<<10))
			w.fr.off = offset
		}
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		w.err = fmt.Errorf("wal: %w", err)
	}
	return w
}

// Next steps to the next whole frame, reporting false from the end of
// the log, the first damaged frame or a read error (Err) on.
func (w *Walk) Next() bool {
	if w.fr.r == nil {
		return false
	}
	frame, err := w.fr.Next()
	if err == nil {
		w.preds = w.preds[:0]
		w.recs, err = DecodePayload(w.recs[:0], &w.preds, frame[FrameHeaderSize:])
	}
	if err != nil {
		w.fr.r, w.frame, w.recs = nil, nil, nil
		if err != io.EOF && !errors.Is(err, ErrCorrupt) {
			w.err = fmt.Errorf("wal: %w", err)
		}
		return false
	}
	w.frame, w.seq, w.end = frame, w.seq+int64(len(w.recs)), w.fr.Offset()
	return true
}

// Frame returns the current frame, header and payload: the log's bytes.
func (w *Walk) Frame() []byte { return w.frame }

// Payload returns the current frame's payload, the bytes the hash chain
// takes.
func (w *Walk) Payload() []byte { return w.frame[FrameHeaderSize:] }

// Records returns the records the current frame carries.
func (w *Walk) Records() []Record { return w.recs }

// Seq returns the number of records the frames yielded so far carry:
// on a walk from genesis, the sequence of the current frame's last.
func (w *Walk) Seq() int64 { return w.seq }

// End returns the absolute offset the valid prefix ends at: the end of
// the current frame, the walk's starting offset before the first.
func (w *Walk) End() int64 { return w.end }

// Err returns the read error that ended the walk, if one did.
func (w *Walk) Err() error { return w.err }

// Close releases the walk's file.
func (w *Walk) Close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// The two ways a log fails a snapshot's anchor (Anchor.Check).
var (
	ErrBeforeWatermark = errors.New("wal: the log's valid frames end before the snapshot's watermark")
	ErrRewritten       = errors.New("wal: history below the watermark was rewritten")
)

// An Anchor is what a snapshot recorded of the log below its byte
// watermark, a frame boundary: the records there and their chain head.
type Anchor struct {
	Records, Watermark int64
	Head               integrity.Head
}

// Check holds a walk from genesis to the anchor, once the walk reaches
// or passes the watermark or ends short of it: seq records in frames
// ending at byte end, chained to head. It returns nil when the log
// matches at the watermark, ErrBeforeWatermark when it ends below it,
// and ErrRewritten when no frame ends there or the count or head
// differ, naming both sides; each caller maps these to its verdict.
func (a Anchor) Check(seq, end int64, head integrity.Head) error {
	switch {
	case end < a.Watermark:
		return fmt.Errorf("%w: they end at byte %d after %d records, the watermark is byte %d after %d", ErrBeforeWatermark, end, seq, a.Watermark, a.Records)
	case end > a.Watermark:
		return fmt.Errorf("%w: no frame ends at the watermark, byte %d; one ends at byte %d", ErrRewritten, a.Watermark, end)
	case seq != a.Records:
		return fmt.Errorf("%w: the log holds %d records below the watermark, the snapshot covers %d", ErrRewritten, seq, a.Records)
	case head != a.Head:
		return fmt.Errorf("%w: chain head %s over records 1..%d, the snapshot's anchor is %s", ErrRewritten, head, seq, a.Head)
	}
	return nil
}
