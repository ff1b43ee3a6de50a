package replica

import (
	"bytes"
	"context"
	"fmt"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wfxml"
)

// Copy is a local copy of one session of another node — what a
// follower keeps of each primary session and what a move target builds
// of the session it takes over. Labels are write-once and labeling is
// deterministic, so both are the same operation: rebuild the session
// from the source's spec (Adopt) and replay the source's log (Pull).
// Every replayed frame is teed verbatim to the copy's own write-ahead
// log, so the head of that log's hash chain (Session.ChainState) must
// equal the source's at the same sequence.
type Copy struct {
	src *client.Client
	s   *service.Session
}

// Adopt returns the local copy of the source session described by st,
// creating it in reg from the source's spec, under the source's
// identity, when reg has no session of that name.
// A local session is reused only when its identity is the source's and
// its own log's chain covers every local vertex — a copy after a
// restart, or one an earlier move left here: one with another identity
// belongs to a different session and is refused with CodeSessionExists,
// and a non-empty one whose log's chain does not cover it (the log was
// closed or poisoned) could never be checked against the source and is
// refused with CodeNotDurable. A refused session is left untouched. A
// reused copy is unsealed: a seal left by an earlier move away from
// this node would refuse the replay.
func Adopt(ctx context.Context, reg *service.Registry, src *client.Client, st client.SessionStats) (*Copy, error) {
	s, ok := reg.Get(st.Name)
	if !ok {
		var err error
		if s, err = create(ctx, reg, src, st); err != nil {
			return nil, err
		}
	} else if id := s.ID(); id != "" && st.ID != "" && id != st.ID {
		return nil, api.Errorf(api.CodeSessionExists,
			"local copy of %q has identity %s, the source's is %s; delete the local copy first", st.Name, id, st.ID)
	} else if n := s.Vertices(); n > 0 {
		if seq, _, chained := s.ChainState(); !chained || seq != n {
			return nil, api.Errorf(api.CodeNotDurable,
				"local copy of %q holds %d events its own log's hash chain does not cover, so it cannot be checked against the source; delete the local copy first", st.Name, n)
		}
	}
	s.Unseal()
	return &Copy{src: src, s: s}, nil
}

// create builds the session from the source's spec. The copy keeps the
// source's identity: it is the same session, and a later Adopt checks
// it is still copying that one.
func create(ctx context.Context, reg *service.Registry, src *client.Client, st client.SessionStats) (*service.Session, error) {
	raw, err := src.SessionSpec(ctx, st.Name)
	if err != nil {
		return nil, fmt.Errorf("fetch spec of %q: %w", st.Name, err)
	}
	sp, err := wfxml.DecodeSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decode spec of %q: %w", st.Name, err)
	}
	g, err := spec.Compile(sp)
	if err != nil {
		return nil, fmt.Errorf("compile spec of %q: %w", st.Name, err)
	}
	return reg.Create(st.Name, g, service.Config{ID: st.ID})
}

// Session returns the local session the copy replays into.
func (cp *Copy) Session() *service.Session { return cp.s }

// Pull tails the source's log from the local copy's next sequence
// (every applied event labels one vertex, so that is Vertices()+1, and
// a copy applies whole frames, so that is a frame boundary of the
// source's log) and applies it through Session.ApplyTail, which tees
// every frame to the copy's own log. With wait the stream stays open
// for new commits until ctx ends or the connection drops; without, it
// ends at the source's committed horizon. batch, when non-nil, runs
// after every applied batch — caughtUp reports that nothing more of the
// stream has arrived, the moment the copy's chain head is comparable
// with the source's — and its error ends the pull. Pull returns how
// many events it applied. A refused record (service.ErrTailRejected)
// can leave part of a frame applied and re-framed in the local log, so
// its chain no longer matches the source's: both callers discard a copy
// whose Pull was refused — a follower stops the session, a move target
// fails the attempt and adopts afresh.
func (cp *Copy) Pull(ctx context.Context, wait bool, batch func(caughtUp bool) error) (int64, error) {
	from := cp.s.Vertices() + 1
	tail, err := cp.src.TailWAL(ctx, cp.s.Name(), from, wait)
	if err != nil {
		return 0, err
	}
	defer tail.Close()
	var applied func(int64) error
	if batch != nil {
		applied = func(int64) error { return batch(!tail.Buffered()) }
	}
	return cp.s.ApplyTail(tail.TailReader, from, applied)
}
