package wal

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrMidFrame reports a tail asked to start at a sequence inside a
// frame: a frame is shipped whole, so a tail starts on a frame boundary
// — the sequence after a batch, never inside it.
var ErrMidFrame = errors.New("wal: sequence falls inside a frame")

// Tailer streams the committed frames of a live Log, in order, each
// with the absolute sequence of its first record. It reads the log's
// own file through an independent read-only handle: history comes off
// the disk (the frames are served byte-for-byte as the writer laid them
// down), and once the reader catches up it blocks on the log's
// DurableAdvanced hook and resumes as new records commit — the primary
// side of WAL shipping.
//
// A Tailer only ever serves records up to DurableSeq. Records that
// are appended but not yet flushed are invisible, so a replica can
// never apply an event the primary might still lose in a crash.
//
// A Tailer is not safe for concurrent use; open one per consumer.
type Tailer struct {
	log   *Log
	f     *os.File
	fr    *FrameReader
	count recordCounter
	pos   int64 // sequence of the last record read from the file
	from  int64 // first sequence to deliver

	// held is a frame read but not yet delivered, whose first record
	// has sequence heldSeq; it aliases fr's buffer.
	held    []byte
	heldSeq int64
}

// NewTailer opens a tailer over the log's file, delivering frames from
// the one whose first record has sequence from (1 is the first record
// ever written to the log; sequences ≤ 0 are rejected). from may point
// past the current end — delivery then starts once the log commits that
// far. A from inside a committed frame is ErrMidFrame, here or — when
// the frame commits later — from Next.
func NewTailer(l *Log, from int64) (*Tailer, error) {
	if from <= 0 {
		return nil, fmt.Errorf("wal: tail sequence %d is not positive", from)
	}
	if l.path == "" {
		return nil, fmt.Errorf("wal: log has no file path to tail")
	}
	f, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	t := &Tailer{log: l, f: f, fr: NewFrameReader(bufio.NewReaderSize(f, 64<<10)), from: from}
	// Position on from as far as the log has committed, so a start
	// inside a frame is refused before anything is served.
	if err := t.fill(context.Background(), false); err != nil && err != io.EOF {
		f.Close()
		return nil, err
	}
	return t, nil
}

// Close releases the tailer's file handle.
func (t *Tailer) Close() error { return t.f.Close() }

// Pending reports whether a committed frame is available without
// waiting — the handler's cue to flush its response buffer before
// blocking.
func (t *Tailer) Pending() bool { return t.held != nil || t.pos < t.log.DurableSeq() }

// Next returns the next committed frame at or past the requested start
// sequence: the sequence of its first record and the raw frame (header
// plus payload, exactly the log's bytes; the slice is reused by the
// following Next call). With wait set Next blocks — on ctx or on the
// log committing more records — until one is available; the log
// closing ends the stream with io.EOF once everything committed has
// been delivered. Without wait, catching up to the committed end
// returns io.EOF immediately.
func (t *Tailer) Next(ctx context.Context, wait bool) (seq int64, frame []byte, err error) {
	if err := t.fill(ctx, wait); err != nil {
		return 0, nil, err
	}
	frame, t.held = t.held, nil
	return t.heldSeq, frame, nil
}

// fill reads frames until one that starts at or past from is held,
// skipping those wholly before it.
func (t *Tailer) fill(ctx context.Context, wait bool) error {
	for t.held == nil {
		first := t.pos + 1
		frame, err := t.read(ctx, wait)
		if err != nil {
			return err
		}
		switch {
		case t.pos < t.from: // still skipping toward the start sequence
		case first < t.from:
			return fmt.Errorf("%w: tail from seq %d, the frame there holds seqs %d–%d", ErrMidFrame, t.from, first, t.pos)
		default:
			t.held, t.heldSeq = frame, first
		}
	}
	return nil
}

// read returns the next committed frame off the file, advancing pos
// past its records.
func (t *Tailer) read(ctx context.Context, wait bool) ([]byte, error) {
	for t.pos >= t.log.DurableSeq() {
		if !wait || t.log.Closed() {
			return nil, io.EOF
		}
		// Subscribe before re-checking, so an advance between the
		// check and the receive cannot be missed.
		ch := t.log.DurableAdvanced()
		if t.pos < t.log.DurableSeq() {
			break
		}
		if t.log.Closed() {
			return nil, io.EOF
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
		}
	}
	// The frame is fully on disk (pos < DurableSeq, and the log commits
	// whole frames), so whatever stops the reader here — the file ending
	// included — is damage below the committed watermark, not a torn
	// tail.
	frame, err := t.fr.Next()
	if err == io.EOF {
		err = fmt.Errorf("%w: the log ends", ErrCorrupt)
	}
	var k int
	if err == nil {
		k, err = t.count.count(frame)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: tail read at seq %d: %w", t.pos+1, err)
	}
	t.pos += int64(k)
	return frame, nil
}
