// Package service hosts long-lived, concurrent provenance-labeling
// sessions: the piece a provenance-aware workflow system runs as a
// daemon. Each session wraps a compiled grammar, an execution-based
// labeler and an encoded label store, ingesting execution events as
// they happen and answering "did A contribute to B?" the moment both
// vertices exist — over partial, still-running executions, which is
// the paper's whole point (labels are issued on the fly and never
// change).
//
// # Concurrency discipline
//
// The labeler is single-writer (see internal/core): a session
// serializes event ingestion under an ingest mutex, and ingest runs as
// a pipeline — label the batch, encode each label, tee each event to
// the write-ahead log, stage the encoded labels into the store's label
// slab, and publish once per batch. The store (see internal/store) owns
// its own synchronization: a label is visible once the slab's published
// position has moved past it, and nothing below that position is ever
// rewritten, so the query path (ReachBatch, LineagePage, Stats)
// acquires no mutex at all — labels are immutable (Section 2.4). Every
// session has a write-ahead log under the registry's data directory,
// and batch durability is acknowledged through a cross-session group
// committer: one flush/fsync per log is amortized over every batch
// that queued while the previous flush was on the disk. The registry
// itself is a plain RWMutex-guarded name map; sessions are independent,
// so ingestion into one session never contends with queries on another.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/label"
	"wfreach/internal/obs"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// Config holds what a session is created with besides its name and
// grammar. There is no labeling choice: every session labels with TCL
// skeleton labels and designated-R recursion compression, the setting
// in which a label is O(log n) bits (Lemma 4.1, Theorem 3).
type Config struct {
	// ID is the session's stable identity, surfaced on stats. Names
	// are reusable (delete + recreate), identities are not — which is
	// how a replica tells "the session I was tailing" from "a new
	// session that took the same name". Empty: a random identity is
	// generated at Create. A replica passes the primary session's
	// identity through so the copy shares it.
	ID string
}

// Stats is a point-in-time snapshot of one session. Vertices counts
// every labeled vertex, including those recovered by Restore; Batches
// counts only the batches ingested since the session was opened or
// restored in this process. The wire shape is owned by internal/api
// (SessionStats).
type Stats = api.SessionStats

// Session is one live labeling session: a grammar, a streaming
// labeler, and the encoded labels issued so far.
type Session struct {
	name string
	g    *spec.Grammar
	cfg  Config

	// ingestMu enforces the single-writer discipline over the labeler.
	ingestMu sync.Mutex
	labeler  *core.ExecutionLabeler
	// entries is the buffer every insertion issues its label into
	// (labelRecord): the label is encoded into the store's slab before
	// the next insertion overwrites it. Guarded by ingestMu.
	entries []label.Entry

	// store holds the encoded labels and owns its own synchronization:
	// writes are staged under its mutex and published per batch; reads
	// are lock-free, bracketed per request by its Enter/Leave so that
	// Delete can retire it and give a snapshot mapping back.
	store *store.Store

	vertices atomic.Int64 // published vertices, readable without locks
	batches  atomic.Int64

	// Durable state (see durable.go); all but the immutable dir and
	// committer are guarded by ingestMu. A nil wal means the session's
	// log was closed or poisoned.
	dir string
	wal *wal.Log
	// frame is the scratch a batch's records are framed into on their
	// way to the log — a whole batch when the caller sent no frames,
	// the applied prefix of a teed frame the labeler stopped inside.
	// Guarded by ingestMu.
	frame []byte
	// needLabelerReplay marks a session restored from an arena snapshot
	// with nothing to replay: its store serves the mapped labels, but
	// the labeler has no execution state yet. The first ingest rebuilds
	// it from the log (ensureLabelerLocked) — queries never need it.
	// Guarded by ingestMu.
	needLabelerReplay bool
	committer         *wal.Committer // the registry-wide group committer
	walEvents         int64          // events appended to the log
	snapEvents        int64          // events covered by the last snapshot
	snapEvery         int64
	snapBusy          bool           // a snapshot write is in flight
	snapWG            sync.WaitGroup // tracks the in-flight snapshot goroutine
	// ioErr is the first failure that left the labeler ahead of the
	// log — a log write, a label too deep to encode — and stops all
	// further ingest.
	ioErr error

	// snapRoot is the Merkle root over the label extents of the last
	// snapshot, at watermark snapEvents (guarded by ingestMu);
	// snapIntegrity is false until the session writes (or restores from)
	// one.
	snapRoot      integrity.Head
	snapIntegrity bool

	// sealed, when non-empty, is the base URL of the node this session
	// moved to (see Seal): ingest is permanently rejected with
	// CodeReadOnly pointing there, while queries and WAL tails keep
	// serving the local copy. Guarded by ingestMu.
	sealed string

	// metrics is the node's instrument set; mEvents/mBytes/mEpoch are
	// the session's own series, resolved once at bindMetrics so the
	// ingest path touches cached atomics only.
	metrics *nodeMetrics
	mEvents *obs.Counter
	mBytes  *obs.Counter
	mEpoch  *obs.Gauge
}

// Registry is a concurrent name → session map backed by a data
// directory (NewDurableRegistry): every session persists there and
// survives restarts via Restore.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	// creating reserves names whose on-disk state is being built or
	// torn down outside the lock, so concurrent Create/Restore/Delete
	// of the same name collide without holding mu across disk I/O.
	creating map[string]bool
	opts     DurableOptions
	// committer is the cross-session WAL group committer.
	committer *wal.Committer
	// route is the routing gate SetRoute installs; nil serves
	// everything.
	route atomic.Pointer[func(session string, write bool) error]
	// repl are the replication hooks a follower installs (see
	// SetReplicationHooks); nil hooks get primary-role defaults.
	repl atomic.Pointer[ReplicationHooks]
	// cluster are the hooks a cluster controller installs (see
	// SetClusterHooks); nil means the server is not clustered and the
	// /v1/cluster surface answers CodeNotClustered.
	cluster atomic.Pointer[ClusterHooks]
	// metrics is the node's instrument set (see metrics.go), built once
	// here — registration is constructor-path only.
	metrics *nodeMetrics
	// ingestScratch is the free list the binary ingest handler takes its
	// reader and batch buffers from (see http.go).
	ingestScratch scratchList[*ingestScratch]
	// reachScratch is the same for the binary batch-reach handler's body,
	// pairs and answers.
	reachScratch scratchList[*reachScratch]
}

// ReplicationHooks lets the replica subsystem answer replication
// queries the registry cannot answer alone: a follower's per-session
// tail progress and the promote transition.
type ReplicationHooks struct {
	// Status builds the replication status response.
	Status func() api.ReplicationStatus
	// Promote flips the follower to writable after a final catch-up.
	Promote func(ctx context.Context) error
}

// ClusterHooks lets the cluster subsystem (internal/cluster) serve the
// /v1/cluster control plane. The registry stays placement-ignorant:
// the controller owns the map and gates the HTTP surface through
// SetRoute.
type ClusterHooks struct {
	// Map snapshots the cluster map.
	Map func() api.ClusterMap
	// Health builds the cluster health response.
	Health func() api.ClusterHealth
	// Move runs (or forwards) a session move.
	Move func(ctx context.Context, req api.MoveRequest) (api.MoveResponse, error)
	// Release runs the owner-side move handoff.
	Release func(ctx context.Context, req api.ReleaseRequest) (api.ReleaseResponse, error)
	// Forget drops the session's placement override after a delete, so
	// a recreated session places by hash again.
	Forget func(session string)
}

// Create opens a new session over the grammar. The name must be
// usable as a directory name and not in use. Create persists the
// specification and metadata under the data directory and opens the
// session's write-ahead log before the session becomes visible, so a
// session that Create returned is already recoverable.
func (r *Registry) Create(name string, g *spec.Grammar, cfg Config) (*Session, error) {
	if err := validateSessionName(name); err != nil {
		return nil, err
	}
	if cfg.ID == "" {
		cfg.ID = newSessionID()
	}
	s := &Session{
		name:    name,
		g:       g,
		cfg:     cfg,
		labeler: core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated),
		store:   store.New(g),
	}
	s.bindMetrics(r.metrics)
	r.mu.Lock()
	if _, dup := r.sessions[name]; dup || r.creating[name] {
		r.mu.Unlock()
		return nil, fmt.Errorf("service: session %q already exists", name)
	}
	// Reserve the name, then build the on-disk state outside the lock
	// so a slow disk never stalls queries on other sessions.
	r.creating[name] = true
	r.mu.Unlock()
	err := s.initDurable(&r.opts, r.committer)
	r.mu.Lock()
	delete(r.creating, name)
	if err == nil {
		r.sessions[name] = s
	}
	r.metrics.sessions.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SetRoute installs the routing gate the HTTP surface consults before
// it serves a session route: create, delete and ingest as writes, and
// a read of a session this registry does not hold. The gate answers
// nil to serve the request, or a refusal naming where to send it —
// CodeReadOnly or CodeWrongNode with a base URL in the detail — which
// is written as the response before anything is applied. A nil gate
// serves everything. A replica.Follower installs one refusing every
// write and clears it on promote; a cluster controller installs its
// placement check. Internal Session methods, which replication and
// moves write through, are not gated.
func (r *Registry) SetRoute(route func(session string, write bool) error) {
	if route == nil {
		r.route.Store(nil)
		return
	}
	r.route.Store(&route)
}

// SetReplicationHooks installs the replica subsystem's status and
// promote callbacks (see ReplicationHooks).
func (r *Registry) SetReplicationHooks(h ReplicationHooks) { r.repl.Store(&h) }

// SetClusterHooks installs the cluster controller's control-plane
// callbacks (see ClusterHooks).
func (r *Registry) SetClusterHooks(h ClusterHooks) { r.cluster.Store(&h) }

// Cluster returns the installed cluster hooks, or nil when the server
// is not clustered.
func (r *Registry) Cluster() *ClusterHooks { return r.cluster.Load() }

// ReplicationStatus reports the server's replication state. A
// follower's installed hook answers with its tail progress; the
// default is the primary role with every session's committed WAL
// sequence — what a follower needs to discover sessions and what a
// load generator needs to compute replica lag.
func (r *Registry) ReplicationStatus() api.ReplicationStatus {
	if h := r.repl.Load(); h != nil && h.Status != nil {
		return h.Status()
	}
	st := api.ReplicationStatus{Role: api.RolePrimary, Sessions: []api.SessionReplication{}}
	for _, name := range r.Names() {
		if s, ok := r.Get(name); ok {
			st.Sessions = append(st.Sessions, api.SessionReplication{
				Name: name, WALSeq: s.WALSeq(), Durable: true,
			})
		}
	}
	return st
}

// PromoteFollower runs the promote transition the installed hook
// provides (final catch-up, stop tailing, flip writable). Without one
// the registry is not a follower — never one, or promoted earlier — and
// promote is a no-op, so failover tooling can re-POST promote until it
// gets an answer without fearing the retry.
func (r *Registry) PromoteFollower(ctx context.Context) error {
	if h := r.repl.Load(); h != nil && h.Promote != nil {
		return h.Promote(ctx)
	}
	return nil
}

// Get returns the named session.
func (r *Registry) Get(name string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[name]
	return s, ok
}

// Delete removes the named session, reporting whether it existed.
// In-flight operations on the session finish normally; it stops being
// reachable by name, and its store is retired: a query that starts
// after Delete through a *Session someone still holds is refused with
// CodeSessionNotFound, and a session restored from a snapshot gives its
// mapping back as soon as the queries already running have left (at
// once when there are none). The session's log is closed and its
// data directory removed — deletion is permanent, the session will not
// come back on Restore, and the name is free for reuse the moment
// Delete returns. (If the removal itself fails, orphaned files may
// survive and be resurrected by a later Restore.) The teardown I/O
// runs outside the registry lock; the name stays reserved until the
// files are gone, so a racing Create cannot trip over them.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	s, ok := r.sessions[name]
	delete(r.sessions, name)
	if ok {
		r.creating[name] = true
	}
	r.metrics.sessions.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.metrics.forgetSession(name)
	s.store.Retire()
	s.closeWAL(false) // the directory is about to be removed; no final snapshot
	os.RemoveAll(s.dir)
	r.mu.Lock()
	delete(r.creating, name)
	r.mu.Unlock()
	return true
}

// Names returns the open session names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sessions))
	for n := range r.sessions {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of open sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// newSessionID returns a fresh random session identity.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Name returns the session's registry name.
func (s *Session) Name() string { return s.name }

// ID returns the session's stable identity (see Config.ID).
func (s *Session) ID() string { return s.cfg.ID }

// Grammar returns the session's compiled grammar.
func (s *Session) Grammar() *spec.Grammar { return s.g }

// Append ingests a batch of execution events, in order. It returns the
// number applied; on error the batch stops at the offending event —
// its index is the returned count — and everything before it is
// ingested and queryable (event streams are append-only, so a partial
// prefix is still a valid partial execution).
//
// Ingest is pipelined: the batch is labeled and encoded under the
// ingest lock, staged into the store, written to the write-ahead log,
// and published — made visible to the lock-free query path — once, at
// the end of the batch. The applied prefix is then
// committed (flushed, and fsynced as configured) before Append returns,
// through the registry's group committer so concurrent batches share
// one flush — an acknowledged batch is recoverable. A log write failure
// permanently stops ingestion on the session (its in-memory state has
// outrun what disk can reproduce); queries keep working.
//
// The in-process writers log one frame per event, where the wire
// routes log one per batch: the performance ledger (benchmark/layers.go)
// checks an in-process session's chain head against a chain it folds
// over one-event frames. ROADMAP item 1(b) replaces that fold with the
// program's own stage timers, and item 1(d) then moves these writers to
// batch frames.
func (s *Session) Append(events []run.Event) (int, error) {
	return appendBatch(s, events, wal.RefRecord, nil, true)
}

// AppendRecords ingests a batch of WAL-form records — the two event
// forms may be mixed freely — with Append's pipeline, partial-batch
// and durability semantics. When frames is non-nil it holds, for each
// record, the pre-encoded, CRC-verified wire frame the record opens, or
// nil where the record continues the frame of the one before (see
// internal/api: the binary ingest frame is byte-identical to the WAL
// frame, and api.FrameReader hands records out this way). The session
// then tees each frame the labeler took whole to its log as-is,
// skipping the re-encode the JSON route pays; a frame the labeler
// stopped inside is re-framed to its applied prefix. With frames nil
// the applied records are framed here, one frame for the batch (more
// only past the format's 1 MiB payload cap).
func (s *Session) AppendRecords(recs []wal.Record, frames [][]byte) (int, error) {
	if frames != nil && (len(frames) != len(recs) || len(recs) > 0 && frames[0] == nil) {
		return 0, fmt.Errorf("service: %d frames for %d records, or the first record opens none", len(frames), len(recs))
	}
	return appendBatch(s, recs, func(rec wal.Record) wal.Record { return rec }, frames, false)
}

// appendBatch is the ingest loop behind Append and AppendRecords,
// which differ only in the element type: record puts element i in WAL
// form, frames, when non-nil, marks where each
// pre-encoded frame opens, and frameEach frames the records it frames
// itself one per frame, logging each as it goes. Per event the order
// is label → stage, and per frame → log: the issued label lives in
// s.entries only until the next labelRecord, a record's predecessors
// and its frame may alias the caller's scratch (the labeler and the
// log both copy what they keep), and nothing of either is referenced
// once appendBatch returns. The log
// takes a frame only once the labeler has taken all of its records, so
// "acked ⇒ logged" holds to the record; a failed log write leaves what
// was staged queryable, the batch unacknowledged and the session closed
// to ingest.
func appendBatch[E any](s *Session, events []E, record func(E) wal.Record, frames [][]byte, frameEach bool) (int, error) {
	s.ingestMu.Lock()
	if err := s.ingestBlockedLocked(); err != nil {
		s.ingestMu.Unlock()
		return 0, err
	}
	reframe := s.wal != nil && frames == nil
	s.frame = s.frame[:0]
	open := -1  // the frame being built in s.frame
	framed := 0 // records in s.frame
	opened := 0 // the record the teed frame in hand opens
	applied := len(events)
	var err, werr error
	for i := range events {
		rec := record(events[i])
		if frames != nil && frames[i] != nil {
			opened = i
		}
		v, l, lerr := s.labelRecord(rec)
		if lerr != nil {
			applied, err = i, fmt.Errorf("service: %w", lerr)
			break
		}
		// Encoded into the slab, invisible until the batch publishes.
		if serr := s.store.Stage(v, l); serr != nil {
			// Unreachable: the labeler already rejects duplicate vertices.
			panic(serr)
		}
		switch {
		case reframe && frameEach:
			if s.frame, _, werr = s.frameRecord(s.frame[:0], -1, rec); werr == nil {
				werr = s.logFrames(s.frame, 1)
			}
			s.frame = s.frame[:0]
		case reframe:
			s.frame, open, werr = s.frameRecord(s.frame, open, rec)
			framed++
		case frames != nil && (i+1 == len(events) || frames[i+1] != nil):
			werr = s.logFrames(frames[opened], i+1-opened) // the frame went in whole
		}
		if werr != nil {
			applied = i + 1
			break
		}
	}
	if err != nil && frames != nil && s.wal != nil {
		// The labeler stopped inside a teed frame: the log takes that
		// frame's applied prefix, re-framed.
		for k := opened; k < applied && werr == nil; k++ {
			s.frame, open, werr = s.frameRecord(s.frame, open, record(events[k]))
			framed++
		}
	}
	if werr == nil {
		werr = s.logFrames(s.frame, framed)
	}
	if cap(s.frame) > wal.MaxPayload {
		s.frame = nil // a batch past the cap should not pin its frames
	}
	if werr != nil {
		// The log is poisoned and the batch unacknowledged; what was
		// staged still becomes queryable.
		s.publishStaged(applied)
		s.ingestMu.Unlock()
		return applied, werr
	}
	return s.finishLocked(applied, err)
}

// ErrTailRejected marks an ApplyTail failure that came from applying a
// shipped record — the labeler or the local log refused it — rather
// than from the stream. Labeling is deterministic, so a rejected
// replayed event means the copy diverged from the source's log (or the
// local WAL is poisoned), and redialing cannot help.
var ErrTailRejected = errors.New("service: shipped record rejected")

// tailBatch is the record count past which ApplyTail applies (and
// commits) what it has batched, at the next frame boundary.
const tailBatch = 256

// ApplyTail applies a WAL tail stream to the session — what a copy of
// another node's session (internal/replica) does with the frames that
// node ships. next is the sequence the first entry must carry. Entries
// are batched greedily, whole frames at a time: the first read blocks,
// then the batch grows while more bytes are already buffered (until a
// frame ends at or past tailBatch records), so a burst arriving after a
// source commit costs one ingest call and one local WAL commit. Each
// shipped frame is teed to the session's own log verbatim.
//
// applied, when non-nil, runs after every batch that went in whole,
// with the sequence of its last record; its error ends the tail.
// ApplyTail returns how many records it applied — a batch the labeler
// stopped midway counts as far as it got, that prefix is real, logged
// data — and nil when the stream ended cleanly. A sequence gap or a damaged stream is returned as the
// reader's error after what arrived intact has been applied (the
// caller redials from next+n); a refused record wraps ErrTailRejected.
func (s *Session) ApplyTail(tr *api.TailReader, next int64, applied func(last int64) error) (n int64, err error) {
	var b batchScratch
	flush := func() error {
		if len(b.recs) == 0 {
			return nil
		}
		k, err := s.AppendRecords(b.recs, b.frames)
		n += int64(k)
		if err != nil {
			return fmt.Errorf("%w at seq %d: %w", ErrTailRejected, next+n, err)
		}
		if applied != nil {
			if err := applied(next + n - 1); err != nil {
				return err
			}
		}
		b.reset()
		tr.Release()
		return nil
	}
	for {
		entry, rerr := tr.Next()
		if want := next + n + int64(len(b.recs)); rerr == nil && entry.Seq != want {
			rerr = fmt.Errorf("tail of %q jumped to seq %d, want %d", s.name, entry.Seq, want)
		}
		if rerr != nil {
			if err := flush(); err != nil {
				return n, err
			}
			if rerr == io.EOF {
				return n, nil
			}
			return n, rerr
		}
		b.add(entry.Record, entry.Frame)
		if tr.Pending() == 0 && (len(b.recs) >= tailBatch || !tr.Buffered()) {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// batchScratch holds one batch of decoded records on its way into
// AppendRecords, with, per record, a copy of the frame it opens or nil:
// the readers reuse their frame buffer per frame, so a batch's frames
// are copied once into one grow-only buffer (a frame added before the
// buffer grew keeps aliasing the old array, which holds the same
// bytes). The binary ingest handler and ApplyTail both fill one. recs
// and frames are valid from add until reset — in practice until
// AppendRecords returns.
type batchScratch struct {
	recs   []wal.Record
	frames [][]byte
	buf    []byte
}

// add appends a record and a copy of the frame it opens, or nil.
func (b *batchScratch) add(rec wal.Record, frame []byte) {
	b.recs = append(b.recs, rec)
	if frame != nil {
		start := len(b.buf)
		b.buf = append(b.buf, frame...)
		frame = b.buf[start:len(b.buf):len(b.buf)]
	}
	b.frames = append(b.frames, frame)
}

// reset empties the batch, keeping its capacity. The slots are cleared:
// a scratch parked on a free list must not pin names, predecessor
// arenas or outgrown frame buffers.
func (b *batchScratch) reset() {
	clear(b.recs)
	clear(b.frames)
	b.recs, b.frames, b.buf = b.recs[:0], b.frames[:0], b.buf[:0]
}

// labelRecord runs one record through the labeler — the label stage
// of ingest and of restore replay alike — and returns the vertex it
// labeled with its label, which aliases s.entries: the caller encodes
// it (Store.Stage) or drops it before the next labelRecord. A label deeper
// than the encoding can frame (label.MaxEntries; only nonlinear
// grammars get there) is refused here, before the record is logged or
// the label encoded. The labeler has placed the vertex by then and
// cannot take it back, so the refusal also stops ingest for good, with
// the same error; queries keep working. Called with ingestMu held, or
// before the session is shared.
func (s *Session) labelRecord(rec wal.Record) (v graph.VertexID, l label.Label, err error) {
	if rec.Named {
		v = rec.NamedEv.V
		s.entries, err = s.labeler.AppendInsertNamed(s.entries[:0], rec.NamedEv)
	} else {
		v = rec.Ref.V
		s.entries, err = s.labeler.AppendInsert(s.entries[:0], rec.Ref)
	}
	l = label.Label{Entries: s.entries}
	if err == nil && l.Len() > label.MaxEntries {
		s.ioErr = api.Errorf(api.CodeBadEvent, "vertex %d needs a label of %d entries, the encoding holds %d: session %q is closed to ingest",
			v, l.Len(), label.MaxEntries, s.name)
		err = s.ioErr
	}
	return v, l, err
}

// ingestBlockedLocked reports why ingest cannot proceed: a poisoned
// log, a label past the encoding's depth, or a seal left by a completed
// move. It also settles the deferred labeler replay an arena restore
// left behind, so by the time any batch reaches the labeler the labeler
// holds the full restored execution state. Called with ingestMu held.
func (s *Session) ingestBlockedLocked() error {
	if s.ioErr != nil {
		return s.ioErr
	}
	if s.sealed != "" {
		return api.Errorf(api.CodeReadOnly, "session %q moved to another node", s.name).
			WithDetail("%s", s.sealed)
	}
	return s.ensureLabelerLocked()
}

// ensureLabelerLocked rebuilds the labeler state an arena restore
// deferred: a walk of the log (wal.Walk) feeds its first walEvents
// records through the labeler only — no encoding, no store writes, no
// hashing; the store already serves those labels from the mapping.
// One-shot: after a successful rebuild the flag clears and every later
// batch pays nothing. A rebuild failure, a log that ends short of
// walEvents included, poisons ingest (the store holds labels the
// labeler cannot account for); queries keep working. Called with
// ingestMu held.
func (s *Session) ensureLabelerLocked() error {
	if !s.needLabelerReplay {
		return nil
	}
	w := wal.OpenWalk(filepath.Join(s.dir, walFile), 0)
	defer w.Close()
	var n int64
	for n < s.walEvents && w.Next() {
		recs := w.Records()
		for _, rec := range recs[:min(int64(len(recs)), s.walEvents-n)] {
			if _, _, err := s.labelRecord(rec); err != nil {
				return s.poisonLocked(fmt.Errorf("deferred replay at record %d: %w", n, err))
			}
			n++
		}
	}
	if err := w.Err(); err != nil {
		return s.poisonLocked(err)
	}
	if n < s.walEvents {
		return s.poisonLocked(fmt.Errorf("log holds %d records, restored state covers %d", n, s.walEvents))
	}
	s.needLabelerReplay = false
	return nil
}

// Seal permanently stops ingest into the session and returns the
// sequence of the last event it ever appended to its log (walEvents
// equals the log's append sequence) — the final
// handoff point of a session move. From the moment Seal returns, every
// ingest attempt is rejected with CodeReadOnly naming the new owner's
// base URL, a 421 over HTTP, so in-flight clients re-route with the
// one-hop redirect they use for followers unless part of their request
// was applied (api.RedirectFromError); queries and WAL tails keep
// serving the local copy. Taking ingestMu closes the race with in-flight
// batches: a batch that acquired the lock first is covered by the
// returned sequence, one that acquires it after is rejected.
func (s *Session) Seal(newOwnerURL string) int64 {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.sealed = newOwnerURL
	return s.walEvents
}

// Unseal reopens ingest into a session Seal closed — the move-back
// path: a node re-adopting a retained copy of a session it once
// released must accept the tailer's replay again (and, once the map
// flips back to it, client writes). The cluster layer keeps external
// writes routed away until the drain completes, so unsealing early is
// safe.
func (s *Session) Unseal() {
	s.ingestMu.Lock()
	s.sealed = ""
	s.ingestMu.Unlock()
}

// publishStaged publishes the n labels staged since the last publish
// — the single point where a batch becomes visible to the lock-free
// query path. Called with ingestMu held, so under the ingest lock the
// published store always holds exactly the applied event prefix.
func (s *Session) publishStaged(n int) {
	if n == 0 {
		return
	}
	s.store.Publish()
	s.vertices.Add(int64(n))
	if s.mEvents != nil {
		s.mEvents.Add(int64(n))
		s.mEpoch.Set(s.store.Epoch())
	}
}

// finishLocked publishes the applied prefix, releases the ingest lock,
// and acknowledges durability for everything logged so far (both the
// success and the partial-batch path ack the applied prefix). Called
// with ingestMu held; returns with it released.
func (s *Session) finishLocked(applied int, err error) (int, error) {
	s.publishStaged(applied)
	if err == nil {
		s.batches.Add(1)
	}
	log := s.wal
	var seq int64
	if log != nil {
		seq = log.AppendSeq()
	}
	s.ingestMu.Unlock()
	if log != nil {
		if cerr := s.commitWAL(log, seq); cerr != nil {
			if err == nil {
				return applied, cerr
			}
			return applied, errors.Join(err, cerr)
		}
		s.maybeSnapshot()
	}
	return applied, err
}

// deleted is the answer to a query on a session Delete has retired.
func (s *Session) deleted() *api.Error {
	return api.Errorf(api.CodeSessionNotFound, "session %q was deleted", s.name)
}

// reach answers v ;* w from the encoded labels alone, without taking
// any lock, inside the caller's Enter/Leave. Both vertices must already
// be labeled; querying a vertex the session has not seen yet is an
// error (the caller cannot distinguish "not reachable" from "not yet
// executed" — the paper's partial-run semantics make that the caller's
// call to retry).
func (s *Session) reach(v, w graph.VertexID) (bool, error) {
	bv, okv := s.store.GetRaw(v)
	bw, okw := s.store.GetRaw(w)
	if !okv {
		return false, api.Errorf(api.CodeVertexNotLabeled, "vertex %d not labeled yet", v)
	}
	if !okw {
		return false, api.Errorf(api.CodeVertexNotLabeled, "vertex %d not labeled yet", w)
	}
	ok, err := s.store.ReachBytes(bv, bw)
	if err != nil {
		// Both labels are stored, so one of them does not parse: the
		// server's fault, like in LineagePage.
		return false, api.AsError(err, api.CodeInternal)
	}
	return ok, nil
}

// ReachBatch answers many reachability pairs in one call, one answer
// per pair in request order. Pair-level failures (an unlabeled
// vertex) are reported inline on the answer — one unanswerable pair
// never invalidates the batch, which is what lets a client amortize
// a roundtrip over dozens of questions. The whole batch runs
// lock-free against the published labels. It is ReachBatchInto
// with the answers spelled out: the one allocation is the slice it
// returns.
func (s *Session) ReachBatch(pairs []api.ReachPair) []api.ReachAnswer {
	var stack [api.MaxReachPairs / 8]byte // a larger batch's bitmap goes to the heap
	bits, fails := s.ReachBatchInto(stack[:0], nil, pairs)
	out := make([]api.ReachAnswer, len(pairs))
	for i, p := range pairs {
		out[i] = api.ReachAnswer{From: p.From, To: p.To, Reachable: bits.Get(i)}
	}
	for _, f := range fails {
		out[f.Index].Code, out[f.Index].Error = f.Code, f.Message
	}
	return out
}

// ReachBatchInto is ReachBatch in the shape the binary response carries
// (internal/api, reach.go), into the caller's buffers: bits is reset to
// one bit per pair, set where From reaches To, and the pairs that could
// not be answered are appended to fails in ascending index order. It
// allocates only to grow a buffer, and for the message of a failure.
// The whole batch is one request to the store: on a session deleted
// before it starts, every pair fails with CodeSessionNotFound.
func (s *Session) ReachBatchInto(bits api.ReachBits, fails []api.ReachFailure, pairs []api.ReachPair) (api.ReachBits, []api.ReachFailure) {
	bits = bits.Reset(len(pairs))
	if !s.store.Enter() {
		gone := s.deleted()
		for i := range pairs {
			fails = append(fails, api.ReachFailure{Index: i, Code: gone.Code, Message: gone.Message})
		}
		return bits, fails
	}
	defer s.store.Leave()
	for i, p := range pairs {
		ok, err := s.reach(graph.VertexID(p.From), graph.VertexID(p.To))
		if err != nil {
			ae := api.AsError(err, api.CodeInternal)
			fails = append(fails, api.ReachFailure{Index: i, Code: ae.Code, Message: ae.Message})
		} else if ok {
			bits.Set(i)
		}
	}
	return bits, fails
}

// LineagePage returns up to limit labeled vertices that reach v (its
// provenance closure so far) with vertex id strictly greater than after
// (pass graph.None to start), ascending, plus whether more remain. The
// scan — π on the encoded bytes of each published label against the
// target's — runs against the store's published labels, so it never
// takes a lock and never stalls ingestion. Ancestor ids are the
// pagination cursor: labels are write-once, so an ancestor reported on
// one page stays correct forever, and a scan resumed at the cursor only
// ever misses ancestors published after that page was served —
// re-running the scan picks them up. limit must be positive. A page
// costs what lies between its cursor and its last ancestor: the store's
// index is in vertex order, so the walk starts at after+1 and stops one
// ancestor past the page (store.LineagePage). Walking a whole closure
// page by page therefore visits each label once, whatever the page
// size. Only a vertex with no label yet is CodeVertexNotLabeled; a
// stored label that does not parse is the server's fault, CodeInternal.
func (s *Session) LineagePage(v graph.VertexID, after graph.VertexID, limit int) (page []graph.VertexID, more bool, err error) {
	if limit <= 0 {
		return nil, false, api.Errorf(api.CodeBadRequest, "lineage page limit must be positive, got %d", limit)
	}
	if !s.store.Enter() {
		return nil, false, s.deleted()
	}
	defer s.store.Leave()
	page, more, err = s.store.LineagePage(v, after, limit)
	switch {
	case errors.Is(err, store.ErrNotStored):
		return nil, false, api.Errorf(api.CodeVertexNotLabeled, "vertex %d not labeled yet", v)
	case err != nil:
		return nil, false, api.AsError(err, api.CodeInternal)
	}
	return page, more, nil
}

// Vertices returns the number of labeled vertices, without locking.
func (s *Session) Vertices() int64 { return s.vertices.Load() }

// Stats snapshots the session without taking any lock.
func (s *Session) Stats() Stats {
	return Stats{
		Name:          s.name,
		ID:            s.cfg.ID,
		Class:         s.g.Class().String(),
		Skeleton:      skeleton.TCL.String(),
		Mode:          core.RModeDesignated.String(),
		Vertices:      s.vertices.Load(),
		ArenaVertices: int64(s.store.ArenaCount()),
		Batches:       s.batches.Load(),
		LabelBits:     s.store.Bits(),
		SkeletonBits:  s.labeler.Skeleton().Bits(),
		PublishEpoch:  s.store.Epoch(),
		Durable:       true,
	}
}

// Builtin returns a built-in specification by name (the Section 7
// workloads), or false for unknown names.
func Builtin(name string) (*spec.Spec, bool) {
	switch name {
	case "Agent":
		return wfspecs.Agent(), true
	case "RunningExample":
		return wfspecs.RunningExample(), true
	case "BioAID":
		return wfspecs.BioAID(), true
	case "BioAIDNonRecursive":
		return wfspecs.BioAIDNonRecursive(), true
	case "LowerBound":
		return wfspecs.Fig6(), true
	case "Path":
		return wfspecs.Fig12(), true
	}
	return nil, false
}

// BuiltinNames lists the built-in specification names, sorted.
func BuiltinNames() []string {
	return []string{"Agent", "BioAID", "BioAIDNonRecursive", "LowerBound", "Path", "RunningExample"}
}
