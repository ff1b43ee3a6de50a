package client

import (
	"context"
	"errors"
	"sync"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/run"
)

// StreamOptions configures a Stream's batching.
type StreamOptions struct {
	// BatchSize flushes when this many events are buffered. Zero
	// selects 256.
	BatchSize int
	// FlushInterval, when positive, also flushes any buffered events
	// this long after the previous flush — bounding how stale a
	// low-rate stream's acknowledged prefix can get.
	FlushInterval time.Duration
}

// DefaultStreamBatch is the BatchSize used when StreamOptions leaves
// it zero.
const DefaultStreamBatch = 256

// Stream is a batching event uploader over the binary frame format.
// Send buffers an event (encoding it immediately into the batch's
// frame, which the server will both ingest and, when durable, write to
// its log verbatim); a buffer of BatchSize events — or FlushInterval
// elapsing — posts one ingest request. Close flushes the tail.
//
// A Stream is safe for concurrent Send, though events interleave in
// arrival order. Any flush error poisons the stream: Send, Flush and
// Close return it from then on, and the events it covered are not
// retried (ingest is not idempotent). Applied() remains an accurate
// resync point even then — a partially applied batch's progress is
// read off the error envelope.
type Stream struct {
	c       *Client
	ctx     context.Context
	session string
	opts    StreamOptions

	mu       sync.Mutex
	buf      []byte
	open     int // the batch's frame in buf (api.AppendEvent)
	n        int
	applied  int64
	vertices int64
	err      error
	closed   bool
	timer    *time.Timer
}

// Stream opens a batching binary-frame uploader into the session.
// The context bounds every flush this stream performs.
func (c *Client) Stream(ctx context.Context, session string, opts StreamOptions) *Stream {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultStreamBatch
	}
	s := &Stream{c: c, ctx: ctx, session: session, opts: opts, open: -1}
	if opts.FlushInterval > 0 {
		s.timer = time.AfterFunc(opts.FlushInterval, s.timedFlush)
	}
	return s
}

func (s *Stream) timedFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	_ = s.flushLocked() // the error is sticky; Send/Flush/Close surface it
	s.timer.Reset(s.opts.FlushInterval)
}

// Send buffers one event, flushing if the batch is full. The returned
// error is either an encoding error for this event (the stream stays
// usable) or the stream's sticky flush error.
func (s *Stream) Send(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return api.Errorf(api.CodeBadRequest, "send on closed stream")
	}
	if s.err != nil {
		return s.err
	}
	buf, open, err := api.AppendEvent(s.buf, s.open, ev)
	if err != nil {
		return err
	}
	s.buf, s.open = buf, open
	s.n++
	if s.n >= s.opts.BatchSize {
		return s.flushLocked()
	}
	return nil
}

// Flush posts any buffered events now.
func (s *Stream) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.flushLocked()
}

func (s *Stream) flushLocked() error {
	if s.n == 0 {
		return nil
	}
	resp, err := s.c.ingestRaw(s.ctx, s.session, s.buf)
	s.buf, s.open, s.n = s.buf[:0], -1, 0
	if err != nil {
		// A partial failure still applied a prefix; the server reports
		// it on the error envelope, so Applied() stays an accurate
		// resync point.
		var ae *Error
		if errors.As(err, &ae) {
			s.applied += int64(ae.Applied)
		}
		s.err = err
		return err
	}
	s.applied += int64(resp.Applied)
	s.vertices = resp.Vertices
	return nil
}

// Close flushes the tail and stops the interval timer. Further Sends
// fail. Close returns the stream's first error, if any.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	if s.err != nil {
		return s.err
	}
	return s.flushLocked()
}

// Applied returns the events the server has acknowledged so far on
// this stream.
func (s *Stream) Applied() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Vertices returns the session's labeled-vertex total as of the last
// acknowledged flush.
func (s *Stream) Vertices() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vertices
}

// FromRun converts an execution event of the labeling library to its
// wire form.
func FromRun(ev run.Event) Event { return api.FromRun(ev) }
