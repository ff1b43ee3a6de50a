package wal

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
)

// Tailer streams the committed records of a live Log as raw frames,
// in order, with absolute sequence numbers. It reads the log's own
// file through an independent read-only handle: history comes off the
// disk (the frames are served byte-for-byte as the writer laid them
// down), and once the reader catches up it blocks on the log's
// DurableAdvanced hook and resumes as new records commit — the
// primary side of WAL shipping.
//
// A Tailer only ever serves records up to DurableSeq. Records that
// are appended but not yet flushed are invisible, so a replica can
// never apply an event the primary might still lose in a crash.
//
// A Tailer is not safe for concurrent use; open one per consumer.
type Tailer struct {
	log  *Log
	f    *os.File
	fr   *FrameReader
	pos  int64 // sequence of the last record read from the file
	from int64 // first sequence to deliver
}

// NewTailer opens a tailer over the log's file, delivering records
// from sequence from (1 is the first record ever written to the log;
// sequences ≤ 0 are rejected). from may point past the current end —
// delivery then starts once the log commits that far.
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
	return &Tailer{log: l, f: f, fr: NewFrameReader(bufio.NewReaderSize(f, 64<<10)), from: from}, nil
}

// Close releases the tailer's file handle.
func (t *Tailer) Close() error { return t.f.Close() }

// Pending reports whether a committed record is available without
// waiting — the handler's cue to flush its response buffer before
// blocking.
func (t *Tailer) Pending() bool { return t.pos < t.log.DurableSeq() }

// Next returns the next committed record at or past the requested
// start sequence: its sequence number and its raw frame (header plus
// payload, exactly the log's bytes; the slice is reused by the
// following Next call). With wait set Next blocks — on ctx or on the
// log committing more records — until one is available; the log
// closing ends the stream with io.EOF once everything committed has
// been delivered. Without wait, catching up to the committed end
// returns io.EOF immediately.
func (t *Tailer) Next(ctx context.Context, wait bool) (seq int64, frame []byte, err error) {
	for {
		for t.pos >= t.log.DurableSeq() {
			if !wait || t.log.Closed() {
				return 0, nil, io.EOF
			}
			// Subscribe before re-checking, so an advance between the
			// check and the receive cannot be missed.
			ch := t.log.DurableAdvanced()
			if t.pos < t.log.DurableSeq() {
				break
			}
			if t.log.Closed() {
				return 0, nil, io.EOF
			}
			select {
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			case <-ch:
			}
		}
		// The record is fully on disk (pos < DurableSeq), so whatever
		// stops the reader here — the file ending included — is damage
		// below the committed watermark, not a torn tail.
		frame, err := t.fr.Next()
		if err == io.EOF {
			err = fmt.Errorf("%w: the log ends", ErrCorrupt)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("wal: tail read at seq %d: %w", t.pos+1, err)
		}
		t.pos++
		if t.pos >= t.from {
			return t.pos, frame, nil
		}
		// Still skipping toward the requested start sequence.
	}
}
