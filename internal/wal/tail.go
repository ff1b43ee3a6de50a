package wal

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
)

// ErrMidFrame reports a tail asked to start at a sequence inside a
// frame: a frame is shipped whole, so a tail starts on a frame boundary
// — the sequence after a batch, never inside it.
var ErrMidFrame = errors.New("wal: sequence falls inside a frame")

// Tailer streams the committed frames of a live Log, in order, each
// with the absolute sequence of its first record. It is a Walk of the
// log's own file, through a read-only handle of its own: history comes
// off the disk (the frames are served byte-for-byte as the writer laid
// them down), and once the walk catches up it blocks on the log's
// DurableAdvanced hook and resumes as new records commit — the primary
// side of WAL shipping.
//
// The walk never steps past DurableSeq. Records that are appended but
// not yet flushed are invisible, so a replica can never apply an event
// the primary might still lose in a crash; and a walk that ends below
// DurableSeq met damage, which is an error, not a torn tail.
//
// A Tailer is not safe for concurrent use; open one per consumer.
type Tailer struct {
	log  *Log
	walk *Walk
	from int64 // first sequence to deliver
	held bool  // the walk's current frame is read but not yet delivered
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
	t := &Tailer{log: l, walk: OpenWalk(l.path, 0), from: from}
	// Position on from as far as the log has committed, so a start
	// inside a frame is refused before anything is served.
	if err := cmp.Or(t.walk.Err(), t.fill(context.Background(), false)); err != nil && err != io.EOF {
		t.walk.Close()
		return nil, err
	}
	return t, nil
}

// Close releases the tailer's file handle.
func (t *Tailer) Close() error { return t.walk.Close() }

// Pending reports whether a committed frame is available without
// waiting — the handler's cue to flush its response buffer before
// blocking.
func (t *Tailer) Pending() bool { return t.held || t.walk.Seq() < t.log.DurableSeq() }

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
	t.held = false
	return t.walk.Seq() - int64(len(t.walk.Records())) + 1, t.walk.Frame(), nil
}

// fill steps the walk until it holds a frame that starts at or past
// from, skipping those wholly before it.
func (t *Tailer) fill(ctx context.Context, wait bool) error {
	for !t.held {
		if err := t.step(ctx, wait); err != nil {
			return err
		}
		last := t.walk.Seq()
		first := last - int64(len(t.walk.Records())) + 1
		switch {
		case last < t.from: // still skipping toward the start sequence
		case first < t.from:
			return fmt.Errorf("%w: tail from seq %d, the frame there holds seqs %d–%d", ErrMidFrame, t.from, first, last)
		default:
			t.held = true
		}
	}
	return nil
}

// step advances the walk by one committed frame, waiting for the log to
// commit one when wait is set.
func (t *Tailer) step(ctx context.Context, wait bool) error {
	for t.walk.Seq() >= t.log.DurableSeq() {
		if !wait || t.log.Closed() {
			return io.EOF
		}
		// Subscribe, then re-check, so an advance between the check and
		// the receive cannot be missed.
		ch := t.log.DurableAdvanced()
		if t.walk.Seq() >= t.log.DurableSeq() && !t.log.Closed() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-ch:
			}
		}
	}
	// The frame is fully on disk (the walk is below DurableSeq, and the
	// log commits whole frames), so a walk that ends here — the file
	// ending included — met damage below the committed watermark, not a
	// torn tail.
	if !t.walk.Next() {
		err := cmp.Or(t.walk.Err(), fmt.Errorf("%w: valid frames end below committed seq %d", ErrCorrupt, t.log.DurableSeq()))
		return fmt.Errorf("wal: tail read at seq %d: %w", t.walk.Seq()+1, err)
	}
	return nil
}
