// Package replica is the follower half of WAL-shipping replication: a
// read replica that discovers the sessions of a primary wfserve,
// tails each session's write-ahead log over HTTP, and replays the
// shipped frames into local read-only sessions that answer the full
// query surface.
//
// The design leans entirely on the frame-identity chain the wire
// contract guarantees (ingest frame ≡ WAL record ≡ shipped frame):
// labels are write-once and labeling is deterministic, so replaying
// the primary's event log through a fresh labeler reissues the exact
// same labels — a follower is nothing more than crash recovery
// running continuously against a remote log. Shipped frames are
// applied through the same ingest path a restore uses and, on a
// durable follower, teed to the follower's own WAL verbatim; the
// follower's log is therefore a byte-identical prefix of the
// primary's, a follower restart resumes from its own recovered
// sequence, and Promote needs nothing but a final catch-up attempt
// before flipping the registry writable — the promoted server's WAL
// already is a valid continuation of everything it acknowledged.
//
// Because a durable follower persists through the same registry as a
// primary, it also takes arena snapshots and a follower restart
// recovers through the same arena path: labels for
// the snapshotted prefix are mapped zero-copy and only the WAL tail
// past the snapshot's byte watermark is replayed, so rejoining after
// a restart costs an mmap plus the tail — not a full re-label of the
// session.
package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/integrity"
	"wfreach/internal/obs"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wfxml"
)

// Options configures a Follower.
type Options struct {
	// PollInterval is how often the primary's session list is polled
	// for sessions to start (or stop) tailing. Zero selects 2s.
	PollInterval time.Duration
	// ReconnectBackoff is the initial delay before re-dialing a
	// dropped tail stream, doubled per consecutive failure up to
	// MaxBackoff. Zero selects 250ms.
	ReconnectBackoff time.Duration
	// MaxBackoff caps the reconnect delay. Zero selects 5s.
	MaxBackoff time.Duration
	// BatchSize caps how many shipped events are applied (and
	// committed) per ingest call. Zero selects 256.
	BatchSize int
	// Logf, when set, receives human-readable progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 250 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
}

// sessionState is one tailed session's progress.
type sessionState struct {
	// primaryID is the identity of the primary session this replica
	// tails, pinned at adoption. A different identity under the same
	// name later means the session was deleted and recreated — its
	// stream must not be spliced onto the old one.
	primaryID string

	mu      sync.Mutex
	applied int64 // last applied primary sequence
	lastErr string
	stopped bool // session vanished/replaced on the primary, or apply failed fatally

	// Incremental chain verification: the follower folds every frame
	// it applies into its own hash chain (the shipped frame is
	// byte-identical to the primary's WAL record, so an untampered
	// history yields the primary's exact head) and, whenever it is
	// caught up, cross-checks its head against the primary's
	// /integrity endpoint at the same sequence. A mismatch means the
	// bytes the primary served are not the bytes it committed —
	// its on-disk log was rewritten under it — and is a hard stop,
	// not a reconnect.
	chainSeq    int64          // frames folded into chainHead
	chainHead   integrity.Head // chain over the applied prefix
	chainOK     bool           // chain is seeded (adopt found a clean resume point)
	verifiedSeq int64          // highest sequence cross-checked against the primary
	noVerify    bool           // primary cannot answer /integrity; skip cross-checks

	// behindSince is when a discovery poll first saw this session lag
	// the primary; zero while caught up. It feeds the lag-seconds gauge.
	behindSince time.Time
}

// Follower replicates a primary into the given registry and flips the
// registry read-only for the duration. Create one with New, start the
// replication loops with Start, and end them with either Promote
// (become a writable primary) or Close (plain shutdown).
type Follower struct {
	primary string
	reg     *service.Registry
	opts    Options
	c       *client.Client

	// Lag and verification instruments, re-registered against the
	// registry's obs families (registration is idempotent — these share
	// atomics with the families the service pre-creates, so the scrape
	// carries them whether or not a follower ever ran).
	lagEvents   *obs.Gauge
	lagSeconds  *obs.FloatGauge
	chainFrames *obs.Counter

	mu       sync.Mutex
	sessions map[string]*sessionState
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	started  bool
	promoted bool
}

// New builds a follower of the primary at the given base URL,
// replicating into reg (typically a freshly restored durable registry
// so replication survives follower restarts; a memory registry works
// too but re-tails from scratch after one). The registry is marked a
// read-only follower and its replication status/promote hooks are
// wired; nothing is tailed until Start.
func New(primary string, reg *service.Registry, opts Options) *Follower {
	opts.fill()
	f := &Follower{
		primary: primary,
		reg:     reg,
		opts:    opts,
		// The follower's own reads of the primary must not silently
		// redirect anywhere, and retries are handled by the reconnect
		// loop.
		c:        client.New(primary, client.WithRetry(0, 0), client.WithoutWriteRedirect()),
		sessions: make(map[string]*sessionState),
	}
	o := reg.Obs()
	f.lagEvents = o.Gauge("wf_replica_lag_events", "Worst follower tail lag across sessions, in events.")
	f.lagSeconds = o.FloatGauge("wf_replica_lag_seconds", "Approximate follower tail lag, in seconds.")
	f.chainFrames = o.Counter("wf_chain_verify_frames_total", "WAL frames hashed during chain verification.")
	reg.SetFollower(primary)
	reg.SetReplicationHooks(service.ReplicationHooks{Status: f.Status, Promote: f.Promote})
	return f
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Start launches the discovery and tail loops in the background.
func (f *Follower) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.discoverLoop(ctx)
	}()
}

// stop ends every background loop and waits them out.
func (f *Follower) stop() {
	f.mu.Lock()
	cancel := f.cancel
	f.cancel = nil
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	f.wg.Wait()
}

// Close stops replicating without promoting. The registry stays a
// read-only follower (a restarted follower process picks up where
// this one left off).
func (f *Follower) Close() { f.stop() }

// Promote ends replication and flips the registry writable: stop the
// tail loops, attempt one final non-waiting catch-up per session —
// draining whatever the primary can still serve; a dead primary just
// fails the dial and the follower keeps everything it already
// applied — then clear follower mode. After Promote the server
// ingests writes and its WAL continues exactly where replication
// stopped. Promoting twice is a no-op: the second call returns
// immediately without re-running catch-up or touching the hooks the
// first promote uninstalled.
func (f *Follower) Promote(ctx context.Context) error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		// Idempotent: the first promote already ran catch-up and
		// uninstalled the hooks; a re-POST must not do either twice.
		return nil
	}
	f.promoted = true
	f.mu.Unlock()

	f.stop()
	for name, st := range f.snapshotSessions() {
		if st.stopped {
			continue
		}
		if err := f.catchUpOnce(ctx, name, st); err != nil {
			f.logf("replica: final catch-up of %q: %v (promoting with what we have)", name, err)
		}
	}
	f.reg.Promote()
	// Uninstall the hooks: from here on the registry's default status —
	// live WAL sequences, post-promote sessions included — is the
	// truth, not this follower's frozen promote-time view. A primary
	// has no tail lag by definition.
	f.reg.SetReplicationHooks(service.ReplicationHooks{})
	f.lagEvents.Set(0)
	f.lagSeconds.Set(0)
	f.logf("replica: promoted; now writable")
	return nil
}

// snapshotSessions copies the tracked session map.
func (f *Follower) snapshotSessions() map[string]*sessionState {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]*sessionState, len(f.sessions))
	for k, v := range f.sessions {
		out[k] = v
	}
	return out
}

// Status reports the follower's replication state: its own applied
// sequence per session (== the committed sequence of the follower's
// own WAL when durable), plus any sticky tail error.
func (f *Follower) Status() api.ReplicationStatus {
	st := api.ReplicationStatus{Role: api.RoleFollower, Primary: f.primary, Sessions: []api.SessionReplication{}}
	f.mu.Lock()
	promoted := f.promoted
	names := make([]string, 0, len(f.sessions))
	for name := range f.sessions {
		names = append(names, name)
	}
	f.mu.Unlock()
	if promoted {
		st.Role, st.Primary = api.RolePrimary, ""
	}
	sort.Strings(names)
	for _, name := range names {
		f.mu.Lock()
		ss := f.sessions[name]
		f.mu.Unlock()
		ss.mu.Lock()
		rep := api.SessionReplication{Name: name, WALSeq: ss.applied, Error: ss.lastErr}
		ss.mu.Unlock()
		if s, ok := f.reg.Get(name); ok {
			rep.Durable = s.Stats().Durable
		}
		st.Sessions = append(st.Sessions, rep)
	}
	return st
}

// discoverLoop polls the primary's session list, adopting new
// sessions and spawning one tail loop per session.
func (f *Follower) discoverLoop(ctx context.Context) {
	ticker := time.NewTicker(f.opts.PollInterval)
	defer ticker.Stop()
	for {
		if err := f.discoverOnce(ctx); err != nil && ctx.Err() == nil {
			f.logf("replica: discover: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// discoverOnce syncs the tracked session set with the primary's.
func (f *Follower) discoverOnce(ctx context.Context) error {
	stats, err := f.c.Sessions(ctx)
	if err != nil {
		return err
	}
	onPrimary := make(map[string]bool, len(stats))
	for _, st := range stats {
		onPrimary[st.Name] = true
		f.mu.Lock()
		ss, known := f.sessions[st.Name]
		f.mu.Unlock()
		if known {
			// A known name whose identity changed was deleted and
			// recreated on the primary — whatever state the tail loop is
			// in, the verdict is "replaced", permanently.
			if st.ID != "" && ss.primaryID != "" && st.ID != ss.primaryID {
				ss.mu.Lock()
				if !strings.Contains(ss.lastErr, "replaced on the primary") {
					ss.stopped = true
					ss.lastErr = fmt.Sprintf("session %q was replaced on the primary (identity %s, was %s); delete the local copy to re-replicate", st.Name, st.ID, ss.primaryID)
					f.logf("replica: %s", ss.lastErr)
				}
				ss.mu.Unlock()
			}
			continue
		}
		if err := f.adopt(ctx, st); err != nil {
			f.logf("replica: adopt %q: %v", st.Name, err)
		}
	}
	// A session dropped on the primary stops being tailed but keeps
	// serving reads here — deleting replicated data is the operator's
	// call, not the replication loop's.
	for name, ss := range f.snapshotSessions() {
		if onPrimary[name] {
			continue
		}
		ss.mu.Lock()
		if !ss.stopped {
			ss.stopped = true
			ss.lastErr = "session no longer on primary"
			f.logf("replica: %q vanished from primary; keeping local data, tail stopped", name)
		}
		ss.mu.Unlock()
	}
	f.observeLag(stats, time.Now())
	return nil
}

// observeLag refreshes the lag gauges from one discovery pass: the
// worst per-session distance behind the primary in events (the
// primary's vertex count is its event count — every event labels one
// vertex), and how long the worst session has been behind. The gauges
// are poll-grained: lag shorter than one PollInterval may never show.
func (f *Follower) observeLag(stats []client.SessionStats, now time.Time) {
	var worstEvents int64
	var worstSeconds float64
	for _, pst := range stats {
		f.mu.Lock()
		ss := f.sessions[pst.Name]
		f.mu.Unlock()
		if ss == nil {
			continue
		}
		ss.mu.Lock()
		lag := pst.Vertices - ss.applied
		if ss.stopped || lag <= 0 {
			ss.behindSince = time.Time{}
			lag = 0
		} else if ss.behindSince.IsZero() {
			ss.behindSince = now
		}
		behind := ss.behindSince
		ss.mu.Unlock()
		if lag > worstEvents {
			worstEvents = lag
		}
		if !behind.IsZero() {
			if sec := now.Sub(behind).Seconds(); sec > worstSeconds {
				worstSeconds = sec
			}
		}
	}
	f.lagEvents.Set(worstEvents)
	f.lagSeconds.Set(worstSeconds)
}

// adopt creates (or re-binds, after a follower restart) the local
// session for one primary session and starts its tail loop.
func (f *Follower) adopt(ctx context.Context, pst client.SessionStats) error {
	s, ok := f.reg.Get(pst.Name)
	if !ok {
		raw, err := f.c.SessionSpec(ctx, pst.Name)
		if err != nil {
			return fmt.Errorf("fetch spec: %w", err)
		}
		sp, err := wfxml.DecodeSpec(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("decode spec: %w", err)
		}
		g, err := spec.Compile(sp)
		if err != nil {
			return fmt.Errorf("compile spec: %w", err)
		}
		cfg, err := service.ParseConfig(pst.Skeleton, pst.Mode)
		if err != nil {
			return fmt.Errorf("labeling config: %w", err)
		}
		// The copy shares the primary session's identity, so a follower
		// restart can re-verify it is still tailing the same session.
		cfg.ID = pst.ID
		if s, err = f.reg.Create(pst.Name, g, cfg); err != nil {
			return err
		}
	} else if lid := s.ID(); lid != "" && pst.ID != "" && lid != pst.ID {
		// The local data belongs to a session that was deleted and
		// recreated on the primary under the same name. Splicing the new
		// stream onto the old state would silently diverge; keep the
		// local data, refuse to tail, and say so in the status.
		ss := &sessionState{primaryID: pst.ID, applied: s.Vertices(), stopped: true,
			lastErr: fmt.Sprintf("session %q was replaced on the primary (identity %s, local copy has %s); delete the local copy to re-replicate", pst.Name, pst.ID, lid)}
		f.mu.Lock()
		if _, dup := f.sessions[pst.Name]; !dup {
			f.sessions[pst.Name] = ss
			f.logf("replica: %s", ss.lastErr)
		}
		f.mu.Unlock()
		return nil
	}
	// Resume point: every applied event labels exactly one vertex, so
	// the local vertex count is the last applied primary sequence —
	// for a durable follower it equals the recovered WAL sequence.
	ss := &sessionState{primaryID: pst.ID, applied: s.Vertices()}
	// Seed the verification chain. A fresh session starts at genesis;
	// a durable follower restart resumes from the chain head its own
	// restore recomputed (and verified) over its local WAL, which is a
	// byte-identical prefix of the primary's. If the local chain state
	// does not line up with the resume sequence there is no sound seed
	// and verification stays off rather than raising false alarms.
	if ss.applied == 0 {
		ss.chainOK = true
	} else if seq, head, ok := s.ChainState(); ok && seq == ss.applied {
		ss.chainSeq, ss.chainHead, ss.chainOK = seq, head, true
	}
	f.mu.Lock()
	if _, dup := f.sessions[pst.Name]; dup {
		f.mu.Unlock()
		return nil
	}
	f.sessions[pst.Name] = ss
	f.mu.Unlock()
	f.logf("replica: tailing %q from seq %d", pst.Name, ss.applied+1)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.tailLoop(ctx, pst.Name, ss)
	}()
	return nil
}

// tailLoop keeps one session's tail stream alive: dial, apply until
// the stream drops, back off, redial from the last applied sequence.
// Every redial after a failure re-verifies the primary session's
// identity first: a dropped stream is exactly the window in which the
// session can have been deleted and recreated under its name.
func (f *Follower) tailLoop(ctx context.Context, name string, ss *sessionState) {
	backoff := f.opts.ReconnectBackoff
	verify := false // adopt just verified; re-check only after failures
	for {
		ss.mu.Lock()
		stopped := ss.stopped
		ss.mu.Unlock()
		if stopped || ctx.Err() != nil {
			return
		}
		if verify && ss.primaryID != "" {
			if pst, err := f.c.Session(ctx, name); err == nil && pst.ID != "" && pst.ID != ss.primaryID {
				ss.mu.Lock()
				ss.stopped = true
				ss.lastErr = fmt.Sprintf("session %q was replaced on the primary (identity %s, was %s); delete the local copy to re-replicate", name, pst.ID, ss.primaryID)
				f.logf("replica: %s", ss.lastErr)
				ss.mu.Unlock()
				return
			}
		}
		err := f.tailOnce(ctx, name, ss, true)
		verify = true
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			// The primary ended the stream cleanly (log closed, e.g. its
			// graceful shutdown); redial after the usual backoff.
			backoff = f.opts.ReconnectBackoff
		default:
			ss.setErr(err)
			var ae *client.Error
			if errors.As(err, &ae) && ae.Code == client.CodeNotDurable {
				// The session has no WAL on the primary (memory-only, or
				// its log failed) and never will: redialing cannot succeed.
				ss.mu.Lock()
				ss.stopped = true
				ss.mu.Unlock()
				f.logf("replica: %q is not tailable on the primary (%v); tail stopped", name, err)
				return
			}
			// Otherwise — dropped stream, unreachable primary, damage
			// mid-stream — redial from the last applied sequence. A
			// session deleted on the primary keeps failing here until
			// discovery marks it stopped.
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.opts.MaxBackoff {
			backoff = f.opts.MaxBackoff
		}
	}
}

// catchUpOnce drains the primary's currently committed history
// without waiting — the promote-time final pull.
func (f *Follower) catchUpOnce(ctx context.Context, name string, ss *sessionState) error {
	return f.tailOnce(ctx, name, ss, false)
}

// tailOnce runs one tail stream until it ends, applying it through
// service.Session.ApplyTail and keeping the session's progress and hash
// chain in step with every applied batch.
func (f *Follower) tailOnce(ctx context.Context, name string, ss *sessionState, wait bool) error {
	s, ok := f.reg.Get(name)
	if !ok {
		return fmt.Errorf("local session %q lost", name)
	}
	ss.mu.Lock()
	from := ss.applied + 1
	ss.mu.Unlock()
	tail, err := f.c.TailWAL(ctx, name, from, wait)
	if err != nil {
		return err
	}
	defer tail.Close()

	chainer := integrity.NewChainer()
	n, err := s.ApplyTail(tail.TailReader, from, f.opts.BatchSize, func(last int64, frames [][]byte) error {
		ss.mu.Lock()
		ss.applied = last
		ss.lastErr = ""
		if ss.chainOK {
			for _, fr := range frames {
				ss.chainHead = chainer.Extend(ss.chainHead, fr)
			}
			ss.chainSeq = last
			f.chainFrames.Add(int64(len(frames)))
		}
		ss.mu.Unlock()
		// A drained stream is the moment the follower can be exactly as
		// far as the primary — the only point where the two chain heads
		// are comparable at the same sequence.
		if !tail.Buffered() {
			return f.verifyChain(ctx, name, ss)
		}
		return nil
	})
	if errors.Is(err, service.ErrTailRejected) {
		// Stop this session rather than corrupt it. The applied prefix
		// is still recorded: it is real, logged data.
		ss.mu.Lock()
		ss.applied = from - 1 + n
		ss.stopped = true
		ss.lastErr = err.Error()
		ss.chainOK = false // the chain no longer tracks what was applied
		ss.mu.Unlock()
	}
	if err != nil {
		return err
	}
	return f.verifyChain(ctx, name, ss)
}

// verifyChain cross-checks the follower's chain head against the
// primary's at the same sequence. It is a no-op while the follower is
// mid-stream (the sequences won't line up), when there is nothing new
// to verify, or when the primary cannot answer. A head mismatch at an
// equal sequence is proof the shipped bytes differ from the bytes the
// primary committed; the session is hard-stopped — reconnecting would
// re-apply the same tampered history.
func (f *Follower) verifyChain(ctx context.Context, name string, ss *sessionState) error {
	ss.mu.Lock()
	ok, seq, head := ss.chainOK, ss.chainSeq, ss.chainHead
	skip := ss.noVerify || !ok || seq <= ss.verifiedSeq
	ss.mu.Unlock()
	if skip {
		return nil
	}
	st, err := f.c.Integrity(ctx, name)
	if err != nil {
		var ae *client.Error
		if errors.As(err, &ae) && ae.Code == client.CodeNotDurable {
			// The primary has no chain to compare against (its WAL
			// failed after we started tailing); verification is
			// permanently unavailable for this session, replication
			// itself is unaffected.
			ss.mu.Lock()
			ss.noVerify = true
			ss.mu.Unlock()
			f.logf("replica: %q: primary reports no integrity state; chain verification off", name)
			return nil
		}
		// Transient fetch failure: the applied data is fine, verify on
		// the next caught-up moment instead of tearing the stream down.
		return nil
	}
	if st.WALSeq != seq {
		// The primary committed more (or answered from before our last
		// batch); heads at different sequences are incomparable.
		return nil
	}
	if have := head.String(); st.ChainHead != have {
		err := fmt.Errorf("integrity: chain mismatch at seq %d of %q: follower computed %s from the shipped frames, primary reports %s — the primary's log was rewritten; tail stopped", seq, name, have, st.ChainHead)
		// Stopped and the reason become visible together: a status
		// reader must never see a stopped session without its why.
		ss.mu.Lock()
		ss.stopped = true
		ss.lastErr = err.Error()
		ss.mu.Unlock()
		return err
	}
	ss.mu.Lock()
	ss.verifiedSeq = seq
	ss.mu.Unlock()
	return nil
}

func (ss *sessionState) setErr(err error) {
	ss.mu.Lock()
	ss.lastErr = err.Error()
	ss.mu.Unlock()
}
