// Package replica copies sessions between nodes. Copy (copy.go) is the
// one copy path: adopt a remote session and tail its write-ahead log
// over the SDK into the copy's own log, whose chain head is what gets
// verified against the source's. A Follower (this file)
// runs one Copy per session of a primary wfserve, forever, behind local
// read-only sessions that answer the full query surface; a cluster move
// target (internal/cluster) runs one to the sealed end of a session it
// takes over.
//
// The design leans entirely on the frame-identity chain the wire
// contract guarantees (ingest frame ≡ WAL frame ≡ shipped frame):
// labels are write-once and labeling is deterministic, so replaying
// the primary's event log through a fresh labeler reissues the exact
// same labels — a follower is nothing more than crash recovery
// running continuously against a remote log. Shipped frames are
// applied through the same ingest path a restore uses and teed to the
// follower's own WAL verbatim; the follower's log is therefore a byte-identical prefix of the
// primary's, a follower restart resumes from its own recovered
// sequence, and Promote needs nothing but a final catch-up attempt
// before flipping the registry writable — the promoted server's WAL
// already is a valid continuation of everything it acknowledged.
//
// Because a follower persists through the same registry as a primary,
// it also takes arena snapshots and a follower restart
// recovers through the same arena path: labels for
// the snapshotted prefix are mapped zero-copy and only the WAL tail
// past the snapshot's byte watermark is replayed, so rejoining after
// a restart costs an mmap plus the tail — not a full re-label of the
// session.
package replica

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/obs"
	"wfreach/internal/service"
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
	// Log receives the follower's progress records; nil discards them.
	Log *slog.Logger
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
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
}

// sessionState is one tailed session's progress.
type sessionState struct {
	// primaryID is the identity of the primary session this replica
	// tails, pinned at adoption. A different identity under the same
	// name later means the session was deleted and recreated — its
	// stream must not be spliced onto the old one.
	primaryID string
	// copy replays the session; nil when adoption refused the local
	// data (the session is stopped from the start).
	copy *Copy

	mu      sync.Mutex
	lastErr string
	stopped bool // session vanished/replaced on the primary, or apply failed fatally

	// Chain verification: whenever the copy is caught up, its head is
	// cross-checked against the primary's /integrity endpoint at the
	// same sequence. A mismatch means the bytes the primary served are
	// not the bytes it committed — its on-disk log was rewritten under
	// it — and is a hard stop, not a reconnect.
	verifiedSeq int64 // highest sequence cross-checked against the primary
	noVerify    bool  // primary cannot answer /integrity; skip cross-checks

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

	// Lag instruments, re-registered against the registry's obs
	// families (registration is idempotent — these share atomics with
	// the families the service pre-creates, so the scrape carries them
	// whether or not a follower ever ran).
	lagEvents  *obs.Gauge
	lagSeconds *obs.FloatGauge

	mu       sync.Mutex
	sessions map[string]*sessionState
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	started  bool
	promoted bool
}

// New builds a follower of the primary at the given base URL,
// replicating into reg (typically a freshly restored registry, so
// replication resumes from the follower's own logs after a restart).
// The registry's routing gate
// becomes the follower's, refusing every write, and its replication
// status/promote hooks are wired; nothing is tailed until Start.
func New(primary string, reg *service.Registry, opts Options) *Follower {
	opts.fill()
	f := &Follower{
		primary: primary,
		reg:     reg,
		opts:    opts,
		// The follower's own reads of the primary must not silently
		// redirect anywhere, and retries are handled by the reconnect
		// loop.
		c:        client.New(primary, client.WithRetry(0, 0), client.WithoutRedirect()),
		sessions: make(map[string]*sessionState),
	}
	o := reg.Obs()
	f.lagEvents = o.Gauge("wf_replica_lag_events", "Worst follower tail lag across sessions, in events.")
	f.lagSeconds = o.FloatGauge("wf_replica_lag_seconds", "Approximate follower tail lag, in seconds.")
	reg.SetRoute(f.route)
	reg.SetReplicationHooks(service.ReplicationHooks{Status: f.Status, Promote: f.Promote})
	return f
}

// route is the follower's routing gate (service.Registry.SetRoute):
// every write goes to the primary, every read is served here.
func (f *Follower) route(_ string, write bool) error {
	if !write {
		return nil
	}
	return api.Errorf(api.CodeReadOnly, "server is a read-only follower; send writes to the primary").
		WithDetail("%s", f.primary)
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

// Close stops replicating without promoting. The routing gate stays,
// so the registry stays a read-only follower (a restarted follower
// process picks up where this one left off).
func (f *Follower) Close() { f.stop() }

// Promote ends replication and flips the registry writable: stop the
// tail loops, attempt one final non-waiting catch-up per session —
// draining whatever the primary can still serve; a dead primary just
// fails the dial and the follower keeps everything it already
// applied — then clear the routing gate. After Promote the server
// ingests writes and its WAL continues exactly where replication
// stopped. Promoting twice is a no-op: the second call returns
// immediately without re-running catch-up or touching the gate and
// hooks the first promote uninstalled.
func (f *Follower) Promote(ctx context.Context) error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		// Idempotent: the first promote already ran catch-up and
		// uninstalled the gate and hooks; a re-POST must not do either
		// twice.
		return nil
	}
	f.promoted = true
	f.mu.Unlock()

	f.stop()
	for name, st := range f.snapshotSessions() {
		if st.stopped {
			continue
		}
		// The final pull: the primary's committed history, no waiting.
		if err := f.tailOnce(ctx, name, st, false); err != nil {
			f.opts.Log.Warn("replica: final catch-up failed; promoting with what we have", "session", name, "err", err)
		}
	}
	f.reg.SetRoute(nil)
	// Uninstall the hooks: from here on the registry's default status —
	// live WAL sequences, post-promote sessions included — is the
	// truth, not this follower's frozen promote-time view. A primary
	// has no tail lag by definition.
	f.reg.SetReplicationHooks(service.ReplicationHooks{})
	f.lagEvents.Set(0)
	f.lagSeconds.Set(0)
	f.opts.Log.Info("replica: promoted; now writable")
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
// own WAL), plus any sticky tail error.
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
		rep := api.SessionReplication{Name: name, Error: ss.lastErr}
		ss.mu.Unlock()
		if s, ok := f.reg.Get(name); ok {
			rep.WALSeq = s.Vertices()
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
			f.opts.Log.Warn("replica: discover failed", "err", err)
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
					f.opts.Log.Warn("replica: tail stopped", "session", st.Name, "err", ss.lastErr)
				}
				ss.mu.Unlock()
			}
			continue
		}
		if err := f.adopt(ctx, st); err != nil {
			f.opts.Log.Warn("replica: adopt failed", "session", st.Name, "err", err)
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
			f.opts.Log.Warn("replica: session vanished from primary; keeping local data, tail stopped", "session", name)
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
		lag := pst.Vertices - f.applied(pst.Name)
		ss.mu.Lock()
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

// applied is the last primary sequence the local copy of the session
// applied: every applied event labels exactly one vertex, so it is the
// local vertex count — after a restart, the follower's recovered WAL
// sequence.
func (f *Follower) applied(name string) int64 {
	if s, ok := f.reg.Get(name); ok {
		return s.Vertices()
	}
	return 0
}

// adopt creates (or re-binds, after a follower restart) the local copy
// of one primary session and starts its tail loop.
func (f *Follower) adopt(ctx context.Context, pst client.SessionStats) error {
	ss := &sessionState{primaryID: pst.ID}
	cp, err := Adopt(ctx, f.reg, f.c, pst)
	var ae *client.Error
	switch {
	case errors.As(err, &ae) && ae.Code == client.CodeSessionExists:
		// The local data belongs to a session that was deleted and
		// recreated on the primary under the same name. Splicing the new
		// stream onto the old state would silently diverge; keep the
		// local data, refuse to tail, and say so in the status.
		ss.stopped = true
		ss.lastErr = fmt.Sprintf("session %q was replaced on the primary: %s", pst.Name, ae.Message)
	case err != nil:
		return err
	default:
		ss.copy = cp
	}
	f.mu.Lock()
	if _, dup := f.sessions[pst.Name]; dup {
		f.mu.Unlock()
		return nil
	}
	f.sessions[pst.Name] = ss
	f.mu.Unlock()
	if ss.stopped {
		f.opts.Log.Warn("replica: tail stopped", "session", pst.Name, "err", ss.lastErr)
		return nil
	}
	f.opts.Log.Info("replica: tailing", "session", pst.Name, "seq", cp.Session().Vertices()+1)
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
				f.opts.Log.Warn("replica: tail stopped", "session", name, "err", ss.lastErr)
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
				// The session's log on the primary failed or was closed,
				// and that process will not reopen it: redialing cannot
				// succeed.
				ss.mu.Lock()
				ss.stopped = true
				ss.mu.Unlock()
				f.opts.Log.Warn("replica: not tailable on the primary; tail stopped", "session", name, "err", err)
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

// tailOnce runs one tail stream of the session's copy until it ends,
// clearing the sticky error on every applied batch and cross-checking
// the chain whenever the copy has caught up.
func (f *Follower) tailOnce(ctx context.Context, name string, ss *sessionState, wait bool) error {
	_, err := ss.copy.Pull(ctx, wait, func(caughtUp bool) error {
		ss.mu.Lock()
		ss.lastErr = ""
		ss.mu.Unlock()
		// A drained stream is the moment the follower can be exactly as
		// far as the primary — the only point where the two chain heads
		// are comparable at the same sequence.
		if caughtUp {
			return f.verifyChain(ctx, name, ss)
		}
		return nil
	})
	if errors.Is(err, service.ErrTailRejected) {
		// Stop this session rather than corrupt it. The applied prefix
		// stays: it is real, logged data.
		ss.mu.Lock()
		ss.stopped = true
		ss.lastErr = err.Error()
		ss.mu.Unlock()
	}
	if err != nil {
		return err
	}
	return f.verifyChain(ctx, name, ss)
}

// verifyChain cross-checks the head of the follower's own log
// (Session.ChainState; every shipped frame is teed to it verbatim)
// against the primary's at the same sequence — the check a cluster
// drain makes with Session.ChainAt. It is a no-op while the follower is
// mid-stream (the sequences won't line up), when there is nothing new
// to verify, when the local log is closed, or when the primary cannot
// answer. A head mismatch at an equal sequence is proof the shipped
// bytes differ from the bytes the primary committed; the session is hard-stopped — reconnecting would
// re-apply the same tampered history.
func (f *Follower) verifyChain(ctx context.Context, name string, ss *sessionState) error {
	seq, head, ok := ss.copy.Session().ChainState()
	ss.mu.Lock()
	skip := !ok || ss.noVerify || seq <= ss.verifiedSeq
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
			f.opts.Log.Warn("replica: primary reports no integrity state; chain verification off", "session", name)
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
		err := fmt.Errorf("integrity: chain mismatch at seq %d of %q: the follower's log holds %s, the primary reports %s — the primary's log was rewritten; tail stopped", seq, name, have, st.ChainHead)
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
