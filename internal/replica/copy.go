package replica

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/integrity"
	"wfreach/internal/obs"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wfxml"
)

// Copy is a local copy of one session of another node — what a
// follower keeps of each primary session and what a move target builds
// of the session it takes over. Labels are write-once and labeling is
// deterministic, so both are the same operation: rebuild the session
// from the source's spec and labeling configuration (Adopt), replay the
// source's log (Pull), and hash every replayed frame into a chain whose
// head (Head) must equal the source's at the same sequence.
type Copy struct {
	src    *client.Client
	s      *service.Session
	frames *obs.Counter

	mu   sync.Mutex
	seq  int64          // records whose frames are folded into head
	head integrity.Head // chain over the applied prefix
}

// Adopt returns the local copy of the source session described by st,
// creating it in reg from the source's spec and labeling configuration,
// under the source's identity, when reg has no session of that name.
// The copy's chain starts at genesis for an empty copy and at the local
// log's own head for a non-empty one — a durable copy after a restart,
// or one an earlier move left here. A local session is reused only when
// its identity is the source's and its own chain covers every local
// vertex: one with another identity belongs to a different session and
// is refused with CodeSessionExists, and a non-empty one no chain of its
// own covers (a memory session) could never be checked against the
// source and is refused with CodeNotDurable. A refused session is left
// untouched. A reused copy is unsealed: a seal left by an earlier move
// away from this node would refuse the replay.
func Adopt(ctx context.Context, reg *service.Registry, src *client.Client, st client.SessionStats) (*Copy, error) {
	var seq int64
	var head integrity.Head
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
		var chained bool
		if seq, head, chained = s.ChainState(); !chained || seq != n {
			return nil, api.Errorf(api.CodeNotDurable,
				"local copy of %q holds %d events its own log's hash chain does not cover, so it cannot be checked against the source; delete the local copy first", st.Name, n)
		}
	}
	s.Unseal()
	return newCopy(reg, src, s, seq, head), nil
}

// newCopy is the copy replaying into s, its chain at head over the
// frames of the first seq records.
func newCopy(reg *service.Registry, src *client.Client, s *service.Session, seq int64, head integrity.Head) *Copy {
	return &Copy{src: src, s: s, seq: seq, head: head,
		frames: reg.Obs().Counter("wf_chain_verify_frames_total", "WAL frames hashed during chain verification.")}
}

// create builds the session from the source's spec and configuration.
// The copy keeps the source's identity: it is the same session, and a
// later Adopt checks it is still copying that one.
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
	cfg, err := service.ParseConfig(st.Skeleton, st.Mode)
	if err != nil {
		return nil, fmt.Errorf("labeling config of %q: %w", st.Name, err)
	}
	cfg.ID = st.ID
	return reg.Create(st.Name, g, cfg)
}

// Session returns the local session the copy replays into.
func (cp *Copy) Session() *service.Session { return cp.s }

// Pull tails the source's log from the local copy's next sequence
// (every applied event labels one vertex, so that is Vertices()+1, and
// a copy applies whole frames, so that is a frame boundary of the
// source's log), applies it through Session.ApplyTail and folds every
// applied frame into the chain. With wait the stream stays open for
// new commits until ctx ends or the connection drops; without, it ends
// at the source's committed horizon. batch, when non-nil, runs after every applied
// batch — caughtUp reports that nothing more of the stream has arrived,
// the moment Head is comparable with the source's — and its error ends
// the pull. Pull returns how many events it applied. A refused record
// (service.ErrTailRejected) can leave part of a batch applied but not
// folded, so the chain no longer covers the copy: both callers discard
// a copy whose Pull was refused — a follower stops the session, a move
// target fails the attempt and adopts afresh.
func (cp *Copy) Pull(ctx context.Context, wait bool, batch func(caughtUp bool) error) (int64, error) {
	from := cp.s.Vertices() + 1
	tail, err := cp.src.TailWAL(ctx, cp.s.Name(), from, wait)
	if err != nil {
		return 0, err
	}
	defer tail.Close()
	chainer := integrity.NewChainer()
	return cp.s.ApplyTail(tail.TailReader, from, func(last int64, frames [][]byte) error {
		folded := 0
		cp.mu.Lock()
		for _, fr := range frames {
			if fr != nil { // nil: the record continues the frame before
				cp.head = chainer.Extend(cp.head, fr)
				folded++
			}
		}
		cp.seq = last
		cp.mu.Unlock()
		cp.frames.Add(int64(folded))
		if batch != nil {
			return batch(!tail.Buffered())
		}
		return nil
	})
}

// Head returns the chain head over the applied prefix and the sequence
// it covers — equal to the source's Session.ChainState at that
// sequence exactly when the copy replayed the bytes the source logged.
func (cp *Copy) Head() (seq int64, head integrity.Head) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.seq, cp.head
}
