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
// rewritten, so the query path (Reach, Lineage, Stats) acquires no
// mutex at all — labels are immutable (Section 2.4). On a
// durable registry, batch durability is acknowledged through a
// cross-session group committer: one flush/fsync per log is amortized
// over every batch that queued while the previous flush was on the
// disk. The registry itself is a plain RWMutex-guarded name map;
// sessions are independent, so ingestion into one session never
// contends with queries on another.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
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

// Config selects the labeling scheme of a session.
type Config struct {
	// Skeleton is the specification-labeling scheme (TCL or BFS).
	Skeleton skeleton.Kind
	// Mode is the recursion-compression mode.
	Mode core.RMode
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

	// Durable state (see durable.go); all but the immutable durable
	// flag, dir and committer are guarded by ingestMu. A nil wal on a
	// durable session means its log was closed or poisoned.
	durable bool
	dir     string
	wal     *wal.Log
	walPath string // the log file, for the deferred labeler replay
	// needLabelerReplay marks a session restored from an arena snapshot
	// with nothing to replay: its store serves the mapped labels, but
	// the labeler has no execution state yet. The first ingest rebuilds
	// it from the log (ensureLabelerLocked) — queries never need it.
	// Guarded by ingestMu.
	needLabelerReplay bool
	committer         *wal.Committer // registry-wide group committer; nil on memory-only restore
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

// Registry is a concurrent name → session map, optionally backed by a
// data directory (NewDurableRegistry) in which case sessions survive
// restarts via Restore.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	// creating reserves names whose durable on-disk state is being
	// built outside the lock, so concurrent Create/Restore of the same
	// name collide without holding mu across disk I/O.
	creating map[string]bool
	durable  *DurableOptions // nil: memory-only
	// committer is the cross-session WAL group committer (durable
	// registries only).
	committer *wal.Committer
	// followerPrimary, when non-nil, marks the registry a read-only
	// follower replica of the primary at that base URL: the HTTP
	// surface rejects writes with CodeReadOnly pointing there, while
	// the replica subsystem keeps applying the primary's WAL through
	// the internal ingest path. Promote clears it.
	followerPrimary atomic.Pointer[string]
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

// ClusterHooks lets the cluster subsystem (internal/cluster) gate the
// HTTP surface by session placement and serve the /v1/cluster control
// plane. The registry stays placement-ignorant: the controller owns
// the map, the registry just consults it.
type ClusterHooks struct {
	// Route decides whether this node serves a request for the session:
	// nil to serve it, or a typed rejection (CodeWrongNode when the
	// node has no copy, CodeReadOnly when a moved session left one)
	// carrying the owner's URL in the detail. write marks mutating
	// requests; reads against a local copy of a moved session are
	// served (stale, like a follower's).
	Route func(session string, write bool) error
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

// NewRegistry returns an empty session registry.
func NewRegistry() *Registry {
	return &Registry{
		sessions:      make(map[string]*Session),
		creating:      make(map[string]bool),
		metrics:       newNodeMetrics(obs.NewRegistry()),
		ingestScratch: scratchList[*ingestScratch]{fresh: newIngestScratch},
		reachScratch:  scratchList[*reachScratch]{fresh: func() *reachScratch { return new(reachScratch) }},
	}
}

// Create opens a new session over the grammar. The name must be
// non-empty and not in use.
//
// On a durable registry (NewDurableRegistry) Create additionally must
// be given a name usable as a directory name; it persists the
// specification and labeling configuration under the data directory
// and opens the session's write-ahead log before the session becomes
// visible, so a session that Create returned is already recoverable.
func (r *Registry) Create(name string, g *spec.Grammar, cfg Config) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("service: empty session name")
	}
	if r.durable != nil {
		if err := validateSessionName(name); err != nil {
			return nil, err
		}
	}
	if cfg.ID == "" {
		cfg.ID = newSessionID()
	}
	s := &Session{
		name:    name,
		g:       g,
		cfg:     cfg,
		labeler: core.NewExecutionLabeler(g, cfg.Skeleton, cfg.Mode),
		store:   store.New(g, cfg.Skeleton),
	}
	s.bindMetrics(r.metrics)
	r.mu.Lock()
	if _, dup := r.sessions[name]; dup || r.creating[name] {
		r.mu.Unlock()
		return nil, fmt.Errorf("service: session %q already exists", name)
	}
	if r.durable == nil {
		r.sessions[name] = s
		r.metrics.sessions.Set(int64(len(r.sessions)))
		r.mu.Unlock()
		return s, nil
	}
	// Reserve the name, then build the on-disk state outside the lock
	// so a slow disk never stalls queries on other sessions.
	r.creating[name] = true
	r.mu.Unlock()
	err := s.initDurable(r.durable, r.committer)
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

// Durable reports whether the registry persists its sessions to a
// data directory (see NewDurableRegistry).
func (r *Registry) Durable() bool { return r.durable != nil }

// SetFollower marks the registry a read-only follower of the primary
// at the given base URL. The HTTP surface then rejects create, delete
// and ingest requests with CodeReadOnly carrying the primary's
// address; queries and WAL tails keep working. The replica subsystem
// itself writes through the internal Session methods, which stay
// open — read-only is a wire-surface contract, not a session lock.
func (r *Registry) SetFollower(primary string) { r.followerPrimary.Store(&primary) }

// Promote clears follower mode: the registry becomes writable again.
// It does not stop the tailing replica — replica.Follower.Promote
// does both, in the right order.
func (r *Registry) Promote() { r.followerPrimary.Store(nil) }

// FollowerPrimary returns the primary's base URL and true when the
// registry is a read-only follower.
func (r *Registry) FollowerPrimary() (string, bool) {
	if p := r.followerPrimary.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// SetReplicationHooks installs the replica subsystem's status and
// promote callbacks (see ReplicationHooks).
func (r *Registry) SetReplicationHooks(h ReplicationHooks) { r.repl.Store(&h) }

// SetClusterHooks installs the cluster controller's routing and
// control-plane callbacks (see ClusterHooks).
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
	if p, ok := r.FollowerPrimary(); ok {
		// Follower mode without hooks (no running replica): still honest
		// about the role.
		st.Role, st.Primary = api.RoleFollower, p
	}
	for _, name := range r.Names() {
		if s, ok := r.Get(name); ok {
			st.Sessions = append(st.Sessions, api.SessionReplication{
				Name: name, WALSeq: s.WALSeq(), Durable: s.durable,
			})
		}
	}
	return st
}

// PromoteFollower runs the promote transition: the installed hook
// (final catch-up, stop tailing, flip writable) when the replica
// subsystem provided one, otherwise just the registry flip. It is
// idempotent: on a server that is already writable — never a
// follower, or promoted earlier — it is a no-op, so failover tooling
// can re-POST promote until it gets an answer without fearing the
// retry.
func (r *Registry) PromoteFollower(ctx context.Context) error {
	if _, ok := r.FollowerPrimary(); !ok {
		return nil // already writable: promote is idempotent
	}
	if h := r.repl.Load(); h != nil && h.Promote != nil {
		return h.Promote(ctx)
	}
	r.Promote()
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
// once when there are none). A durable session's log is closed and its
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
	if ok && s.durable {
		r.creating[name] = true
	}
	r.metrics.sessions.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	if ok {
		r.metrics.forgetSession(name)
		s.store.Retire()
	}
	if ok && s.durable {
		s.closeWAL(false) // the directory is about to be removed; no final snapshot
		os.RemoveAll(s.dir)
		r.mu.Lock()
		delete(r.creating, name)
		r.mu.Unlock()
	}
	return ok
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
// ingest lock, teed event by event to the write-ahead log, staged into
// the store, and published — made visible to the lock-free query path
// — once, at the end of the batch. On a durable
// session the applied prefix is then committed (flushed, and fsynced
// as configured) before Append returns, through the registry's group
// committer so concurrent batches share one flush — an acknowledged
// batch is recoverable. A log write failure permanently stops
// ingestion on the session (its in-memory state has outrun what disk
// can reproduce); queries keep working.
func (s *Session) Append(events []run.Event) (int, error) {
	return appendBatch(s, events, wal.RefRecord, nil)
}

// AppendNamed ingests a batch of name-identified events (the Section
// 5.3 naming-restriction setting), with Append's pipeline,
// partial-batch and durability semantics.
func (s *Session) AppendNamed(events []core.NamedEvent) (int, error) {
	return appendBatch(s, events, wal.NamedRecord, nil)
}

// AppendRecords ingests a batch of WAL-form records — the two event
// forms may be mixed freely — with Append's pipeline, partial-batch
// and durability semantics. When frames is non-nil it must hold one
// pre-encoded, CRC-verified wire frame per record (see internal/api:
// the binary ingest frame is byte-identical to the WAL frame); a
// durable session then tees each accepted frame to its log as-is,
// skipping the re-encode the JSON route pays. With frames nil the
// records are framed here.
func (s *Session) AppendRecords(recs []wal.Record, frames [][]byte) (int, error) {
	if frames != nil && len(frames) != len(recs) {
		return 0, fmt.Errorf("service: %d frames for %d records", len(frames), len(recs))
	}
	return appendBatch(s, recs, func(rec wal.Record) wal.Record { return rec }, frames)
}

// appendBatch is the ingest loop behind Append, AppendNamed and
// AppendRecords, which differ only in the element type: record puts
// element i in WAL form, and frames, when non-nil, holds its
// pre-encoded frame. Per event the order is label → log → stage: the
// issued label lives in s.entries only until the next labelRecord, a
// record's predecessors and its frame may alias the caller's scratch
// (the labeler and the log both copy what they keep), and nothing of
// either is referenced once appendBatch returns.
func appendBatch[E any](s *Session, events []E, record func(E) wal.Record, frames [][]byte) (int, error) {
	s.ingestMu.Lock()
	if err := s.ingestBlockedLocked(); err != nil {
		s.ingestMu.Unlock()
		return 0, err
	}
	applied := len(events)
	var err error
	for i := range events {
		rec := record(events[i])
		v, l, lerr := s.labelRecord(rec)
		if lerr != nil {
			applied, err = i, fmt.Errorf("service: %w", lerr)
			break
		}
		var werr error
		if frames != nil {
			werr = s.logFrame(frames[i])
		} else {
			werr = s.logRecord(rec)
		}
		if werr != nil {
			// The log is poisoned and the batch unacknowledged; the
			// logged prefix still becomes queryable.
			s.publishStaged(i)
			s.ingestMu.Unlock()
			return i, werr
		}
		// Encoded into the slab, invisible until the batch publishes.
		if serr := s.store.Stage(v, l); serr != nil {
			// Unreachable: the labeler already rejects duplicate vertices.
			panic(serr)
		}
	}
	return s.finishLocked(applied, err)
}

// ErrTailRejected marks an ApplyTail failure that came from applying a
// shipped record — the labeler or the local log refused it — rather
// than from the stream. Labeling is deterministic, so a rejected
// replayed event means the copy diverged from the source's log (or the
// local WAL is poisoned), and redialing cannot help.
var ErrTailRejected = errors.New("service: shipped record rejected")

// ApplyTail applies a WAL tail stream to the session — what a follower
// and a move target both do with the frames another node ships. next is
// the sequence the first entry must carry. Entries are batched
// greedily: the first read blocks, then the batch grows while more
// bytes are already buffered (up to batch records), so a burst arriving
// after a source commit costs one ingest call and one local WAL commit.
// Each shipped frame is teed to the session's own log verbatim.
//
// applied, when non-nil, runs after every batch that went in whole,
// with the sequence of its last record and its frames (valid during the
// call); its error ends the tail. ApplyTail returns how many records it
// applied — a batch the labeler stopped midway counts as far as it got,
// that prefix is real, logged data — and nil when the stream ended
// cleanly. A sequence gap or a damaged stream is returned as the
// reader's error after what arrived intact has been applied (the
// caller redials from next+n); a refused record wraps ErrTailRejected.
func (s *Session) ApplyTail(tr *api.TailReader, next int64, batch int, applied func(last int64, frames [][]byte) error) (n int64, err error) {
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
			if err := applied(next+n-1, b.frames); err != nil {
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
		if len(b.recs) >= batch || !tr.Buffered() {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// batchScratch holds one batch of decoded records on its way into
// AppendRecords, with a copy of each record's frame: the readers reuse
// their frame buffer per frame, so a batch's frames are copied once
// into one grow-only buffer (a frame added before the buffer grew keeps
// aliasing the old array, which holds the same bytes). The binary
// ingest handler and ApplyTail both fill one. recs and frames are valid
// from add until reset — in practice until AppendRecords returns.
type batchScratch struct {
	recs   []wal.Record
	frames [][]byte
	buf    []byte
}

// add appends a record and, when frame is non-nil, a copy of its frame.
func (b *batchScratch) add(rec wal.Record, frame []byte) {
	b.recs = append(b.recs, rec)
	if frame != nil {
		start := len(b.buf)
		b.buf = append(b.buf, frame...)
		b.frames = append(b.frames, b.buf[start:len(b.buf):len(b.buf)])
	}
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

// errLabelerCaughtUp aborts the deferred replay scan once the labeler
// has consumed exactly the records the restored store covers.
var errLabelerCaughtUp = errors.New("service: labeler caught up")

// ensureLabelerLocked rebuilds the labeler state an arena restore
// deferred: the first walEvents records of the log are replayed
// through the labeler only — no encoding, no store writes, the store
// already serves those labels from the mapping. One-shot: after a
// successful rebuild the flag clears and every later batch pays
// nothing. A rebuild failure poisons ingest (the store holds labels
// the labeler cannot account for); queries keep working. Called with
// ingestMu held.
func (s *Session) ensureLabelerLocked() error {
	if !s.needLabelerReplay {
		return nil
	}
	target := s.walEvents
	n := int64(0)
	_, _, err := wal.Scan(s.walPath, func(i int, rec wal.Record) error {
		if n >= target {
			return errLabelerCaughtUp
		}
		if _, _, ierr := s.labelRecord(rec); ierr != nil {
			return fmt.Errorf("service: session %q: deferred replay at record %d: %w", s.name, i, ierr)
		}
		n++
		return nil
	})
	if errors.Is(err, errLabelerCaughtUp) {
		err = nil
	}
	if err == nil && n < target {
		err = fmt.Errorf("service: session %q: log holds %d records, restored state covers %d", s.name, n, target)
	}
	if err != nil {
		s.ioErr = fmt.Errorf("service: session %q: %w: %v", s.name, ErrDurability, err)
		return s.ioErr
	}
	s.needLabelerReplay = false
	return nil
}

// Seal permanently stops ingest into the session and returns the
// sequence of the last event it ever appended to its log — the final
// handoff point of a session move. From the moment Seal returns, every
// ingest attempt is rejected with CodeReadOnly naming the new owner's
// base URL, so in-flight clients re-route with the one-hop redirect
// they already use for followers; queries and WAL tails keep serving
// the local copy. Taking ingestMu closes the race with in-flight
// batches: a batch that acquired the lock first is covered by the
// returned sequence, one that acquires it after is rejected.
func (s *Session) Seal(newOwnerURL string) int64 {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.sealed = newOwnerURL
	if s.wal != nil {
		return s.wal.AppendSeq()
	}
	// Memory-only: every applied event labels one vertex, so the vertex
	// count is the stream position.
	return s.vertices.Load()
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

// Reach answers v ;* w from the encoded labels alone, without taking
// any lock. Both vertices must already be labeled; querying a vertex
// the session has not seen yet is an error (the caller cannot
// distinguish "not reachable" from "not yet executed" — the paper's
// partial-run semantics make that the caller's call to retry). Like
// every query, it is one request to the store — Enter, read, Leave —
// and on a session Registry.Delete has retired it is refused with
// CodeSessionNotFound.
func (s *Session) Reach(v, w graph.VertexID) (bool, error) {
	if !s.store.Enter() {
		return false, s.deleted()
	}
	defer s.store.Leave()
	return s.reach(v, w)
}

// deleted is the answer to a query on a session Delete has retired.
func (s *Session) deleted() *api.Error {
	return api.Errorf(api.CodeSessionNotFound, "session %q was deleted", s.name)
}

// reach is Reach inside the caller's Enter/Leave.
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
		// server's fault, like in Lineage.
		return false, api.AsError(err, api.CodeInternal)
	}
	return ok, nil
}

// ReachBatch answers many reachability pairs in one call, one answer
// per pair in request order. Pair-level failures (an unlabeled
// vertex) are reported inline on the answer — one unanswerable pair
// never invalidates the batch, which is what lets a client amortize
// a roundtrip over dozens of questions. Like Reach, the whole batch
// runs lock-free against the published labels. It is ReachBatchInto
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

// Lineage returns the labeled vertices that reach v (its provenance
// closure so far), ascending. The whole scan — π on the encoded bytes
// of every published label against the target's — runs against the
// store's published labels, so a lineage query never takes a lock
// and never stalls ingestion. Only a vertex with no label yet is
// CodeVertexNotLabeled; a stored label that does not parse is the
// server's fault, CodeInternal.
func (s *Session) Lineage(v graph.VertexID) ([]graph.VertexID, error) {
	out, _, err := s.lineage(v, graph.None, 0)
	return out, err
}

// LineagePage returns up to limit ancestors of v with vertex id
// strictly greater than after (pass graph.None to start), ascending,
// plus whether more remain. Ancestor ids are the pagination cursor:
// labels are write-once, so an ancestor reported on one page stays
// correct forever, and a scan resumed at the cursor only ever misses
// ancestors published after that page was served — re-running the
// scan picks them up. limit must be positive. A page costs what lies
// between its cursor and its last ancestor: the store's index is in
// vertex order, so the walk starts at after+1 and stops one ancestor
// past the page (store.LineagePage). Walking a whole closure page by
// page therefore visits each label once, whatever the page size.
func (s *Session) LineagePage(v graph.VertexID, after graph.VertexID, limit int) (page []graph.VertexID, more bool, err error) {
	if limit <= 0 {
		return nil, false, api.Errorf(api.CodeBadRequest, "lineage page limit must be positive, got %d", limit)
	}
	return s.lineage(v, after, limit)
}

// lineage is the store's page walk with its errors typed for the wire.
func (s *Session) lineage(v, after graph.VertexID, limit int) ([]graph.VertexID, bool, error) {
	if !s.store.Enter() {
		return nil, false, s.deleted()
	}
	defer s.store.Leave()
	page, more, err := s.store.LineagePage(v, after, limit)
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
		Skeleton:      s.cfg.Skeleton.String(),
		Mode:          s.cfg.Mode.String(),
		Vertices:      s.vertices.Load(),
		ArenaVertices: int64(s.store.ArenaCount()),
		Batches:       s.batches.Load(),
		LabelBits:     s.store.Bits(),
		SkeletonBits:  s.labeler.Skeleton().Bits(),
		PublishEpoch:  s.store.Epoch(),
		Durable:       s.durable,
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
