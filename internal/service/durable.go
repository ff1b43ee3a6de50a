package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/integrity"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wal"
	"wfreach/internal/wfxml"
)

// Per-session data files under <DurableOptions.Dir>/<session name>/.
// Their byte-level layouts are specified in ARCHITECTURE.md.
const (
	metaFile = "session.json" // sessionMeta: labeling configuration
	specFile = "spec.xml"     // the workflow specification, as wfxml
	walFile  = "events.wal"   // append-only event log (internal/wal)
	snapFile = "labels.snap"  // latest label snapshot (internal/wal)
)

// metaFormat is the session.json format version this build writes.
const metaFormat = 1

// DefaultSnapshotEvery is the snapshot cadence used when
// DurableOptions.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// ErrDurability marks server-side persistence failures (a WAL that
// cannot be written, flushed or reopened). It lets callers — the HTTP
// layer in particular — distinguish "your events are invalid" from
// "the server cannot keep its durability promise".
var ErrDurability = errors.New("durability failure")

// DurableOptions configures the persistence layer of a registry.
type DurableOptions struct {
	// Dir is the root data directory. Each session owns the
	// subdirectory Dir/<name> holding its specification, metadata,
	// event WAL and label snapshot.
	Dir string
	// SnapshotEvery is the number of ingested events between label-map
	// snapshots. Zero selects DefaultSnapshotEvery; negative disables
	// snapshotting (recovery then replays the full WAL).
	SnapshotEvery int
	// Fsync forces the WAL to stable storage before a batch is
	// acknowledged. With it off, an acknowledged batch survives a
	// process crash (the OS holds the written bytes) but may be lost to
	// a whole-machine crash.
	Fsync bool
}

// sessionMeta is the JSON body of a session's metadata file, written
// once at creation. Shards records the session's configured store
// shard count (zero: the registry default at restore time); ID the
// session's stable identity (Config.ID). Both are absent in files
// written before the fields existed, which decodes as zero/empty.
type sessionMeta struct {
	Format   int    `json:"format"`
	Name     string `json:"name"`
	ID       string `json:"id,omitempty"`
	Skeleton string `json:"skeleton"`
	RMode    string `json:"rmode"`
	Shards   int    `json:"shards,omitempty"`
}

// NewDurableRegistry returns a registry whose sessions persist to
// opts.Dir: every Create writes the session's specification and
// metadata and opens its write-ahead log, every acknowledged event
// batch is logged before it becomes queryable, and Restore rebuilds
// the sessions after a restart. The directory is created if absent.
func NewDurableRegistry(opts DurableOptions) (*Registry, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("service: durable registry needs a data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	r := NewRegistry()
	r.durable = &opts
	r.committer = wal.NewCommitter()
	r.committer.SetMetrics(r.metrics.wal)
	return r, nil
}

// validateSessionName rejects names that cannot double as directory
// names. Durable sessions live at Dir/<name>, so the name must be a
// single clean path element of filesystem-friendly length with no
// control characters.
func validateSessionName(name string) error {
	if name == "" || name == "." || name == ".." || len(name) > 255 ||
		strings.ContainsAny(name, "/\\") || name != filepath.Clean(name) {
		return fmt.Errorf("service: session name %q is not usable as a directory name", name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			return fmt.Errorf("service: session name %q contains control characters", name)
		}
	}
	return nil
}

// writeFileSync creates path, streams content through write, and
// fsyncs before closing — metadata files must not be left half-written
// by a machine crash (a session with torn metadata aborts Restore).
func writeFileSync(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}

// syncDir fsyncs a directory, committing the entries created in it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if closeErr := d.Close(); err == nil {
		err = closeErr
	}
	return err
}

// initDurable attaches persistence to a freshly created session:
// creates its directory, writes spec.xml and session.json (fsynced,
// along with the directories, so a machine crash cannot leave torn
// metadata behind a successful Create), and opens an empty WAL. Called
// with the session's name reserved in the registry but no lock held.
func (s *Session) initDurable(opts *DurableOptions, committer *wal.Committer) error {
	dir := filepath.Join(opts.Dir, s.name)
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("service: session data already exists at %s (restore or remove it)", dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("service: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: %w: %v", ErrDurability, err)
	}
	cleanup := func() { os.RemoveAll(dir) }

	err := writeFileSync(filepath.Join(dir, specFile), func(f *os.File) error {
		return wfxml.EncodeSpec(f, s.g.Spec())
	})
	if err != nil {
		cleanup()
		return fmt.Errorf("service: persist spec: %w: %v", ErrDurability, err)
	}

	meta, err := json.MarshalIndent(sessionMeta{
		Format:   metaFormat,
		Name:     s.name,
		ID:       s.cfg.ID,
		Skeleton: s.cfg.Skeleton.String(),
		RMode:    s.cfg.Mode.String(),
		Shards:   s.cfg.Shards,
	}, "", "  ")
	if err == nil {
		err = writeFileSync(filepath.Join(dir, metaFile), func(f *os.File) error {
			_, werr := f.Write(append(meta, '\n'))
			return werr
		})
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err == nil {
		err = syncDir(opts.Dir)
	}
	if err != nil {
		cleanup()
		return fmt.Errorf("service: persist metadata: %w: %v", ErrDurability, err)
	}

	log, err := wal.Open(filepath.Join(dir, walFile), 0, 0, opts.Fsync)
	if err != nil {
		cleanup()
		return fmt.Errorf("service: %w: %v", ErrDurability, err)
	}
	s.attachWAL(dir, log, opts, committer)
	return nil
}

// attachWAL flips the session into durable mode.
func (s *Session) attachWAL(dir string, log *wal.Log, opts *DurableOptions, committer *wal.Committer) {
	s.durable = true
	s.dir = dir
	s.wal = log
	s.committer = committer
	s.snapEvery = int64(opts.SnapshotEvery)
	if s.metrics != nil {
		log.SetMetrics(s.metrics.wal)
	}
}

// logRecord appends one successfully labeled event to the WAL. A write
// failure poisons the session: the labeler has already advanced past
// the log, so accepting more events would make the on-disk state
// unrecoverable. Called with ingestMu held.
func (s *Session) logRecord(rec wal.Record) error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Append(rec); err != nil {
		s.ioErr = fmt.Errorf("service: session %q: %w: %v", s.name, ErrDurability, err)
		return s.ioErr
	}
	s.walEvents++
	return nil
}

// logFrame appends one successfully labeled event to the WAL as a
// pre-encoded, CRC-verified wire frame (byte-identical to the WAL
// frame — see internal/api), skipping re-encoding. Failure semantics
// match logRecord: a write failure poisons the session. Called with
// ingestMu held.
func (s *Session) logFrame(frame []byte) error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.AppendRaw(frame); err != nil {
		s.ioErr = fmt.Errorf("service: session %q: %w: %v", s.name, ErrDurability, err)
		return s.ioErr
	}
	s.walEvents++
	return nil
}

// commitWAL makes everything appended to the log up to seq durable —
// flushed, and fsynced as the registry is configured — before the
// batch is acknowledged. The flush goes through the registry's group
// committer (attachWAL always wires one: only durable registries open
// WALs, and every durable registry owns a committer), so it coalesces
// with concurrent batches — one disk round-trip covers every batch
// that queued behind it. Called without ingestMu: a commit in flight
// must not block the next batch from labeling and logging. A commit
// failure poisons the session.
func (s *Session) commitWAL(log *wal.Log, seq int64) error {
	start := time.Now()
	err := s.committer.Commit(log, seq)
	s.observeCommit(start)
	if err == nil {
		return nil
	}
	werr := fmt.Errorf("service: session %q: %w: %v", s.name, ErrDurability, err)
	s.ingestMu.Lock()
	if s.ioErr == nil {
		s.ioErr = werr
	}
	s.ingestMu.Unlock()
	return werr
}

// writeArenaSnapshot writes an arena snapshot (see internal/arena):
// events is the covered record count, walBytes the log byte offset the
// covered prefix ends at, entries the encoded labels. The entry bytes
// are aliased, never copied — labels are write-once, so a concurrent
// ingest can only add entries the snapshot does not reference. With
// hasChain set, chain is the WAL hash-chain head at record events and
// the snapshot is stamped in the WFSNAP03 format (Merkle root over the
// entries plus the chain head); otherwise plain WFSNAP02 is written.
// The Merkle root of a v3 snapshot is returned.
func writeArenaSnapshot(path string, events, walBytes int64, entries []store.Entry, chain integrity.Head, hasChain bool) (integrity.Head, error) {
	aes := make([]arena.Entry, len(entries))
	for i, e := range entries {
		aes[i] = arena.Entry{V: e.V, Enc: e.Enc}
	}
	return arena.Write(path, arena.Meta{Events: events, WALBytes: walBytes, ChainHead: chain, HasChain: hasChain}, aes)
}

// maybeSnapshot starts a label snapshot if enough events accumulated
// since the last one and none is in flight. The consistent view —
// label entries plus the event and byte watermarks — is captured under
// ingestMu: the published store holds exactly the logged event prefix
// whenever the ingest lock is free, so the watermarks and the staged
// entry list agree. The file write and fsync, which grow with session
// size, run in a goroutine off the ingest path. Snapshots are written
// in the arena (WFSNAP02) format — a session restored from a v1 file
// upgrades to v2 at its next snapshot. Failures are not fatal — the
// WAL alone is always sufficient for recovery — and are retried at a
// later batch because the watermark does not advance. Called after a
// successful commit, without ingestMu held.
func (s *Session) maybeSnapshot() {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.wal == nil || s.snapEvery <= 0 || s.walEvents-s.snapEvents < s.snapEvery || s.snapBusy {
		return
	}
	s.snapBusy = true
	events := s.walEvents
	walBytes := s.wal.AppendBytes()
	entries := s.store.SnapshotEntries()
	// The chain head at the captured watermark: under ingestMu the
	// log's append sequence equals walEvents (every logged record
	// advanced both), so folding the pending frames in now yields the
	// head of exactly the covered prefix.
	chainSeq, chainHead, hasChain := s.wal.ChainHead()
	hasChain = hasChain && chainSeq == events
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		t0 := time.Now()
		root, err := writeArenaSnapshot(filepath.Join(s.dir, snapFile), events, walBytes, entries, chainHead, hasChain)
		s.observeSnapshot(t0, err)
		s.ingestMu.Lock()
		s.snapBusy = false
		if err == nil && events > s.snapEvents {
			s.snapEvents = events
			s.snapRoot, s.snapChain, s.snapIntegrity = root, chainHead, hasChain
		}
		s.ingestMu.Unlock()
	}()
}

// WALSeq returns the sequence of the last event committed to the
// session's write-ahead log — an absolute, restart-stable position in
// the event stream (the count of events ever logged). It is 0 for
// memory-only sessions and frozen once a durable session's log closes
// or poisons.
func (s *Session) WALSeq() int64 {
	s.ingestMu.Lock()
	log := s.wal
	s.ingestMu.Unlock()
	if log == nil {
		return 0
	}
	return log.DurableSeq()
}

// NewWALTailer opens a tailer over the session's write-ahead log,
// serving committed records from sequence from (1-based) — history
// off the disk, then live as batches commit. The caller owns closing
// it. Sessions without an open log (memory-only, closed, poisoned)
// cannot be tailed; the error is a typed CodeNotDurable.
func (s *Session) NewWALTailer(from int64) (*wal.Tailer, error) {
	s.ingestMu.Lock()
	log := s.wal
	s.ingestMu.Unlock()
	if log == nil {
		return nil, api.Errorf(api.CodeNotDurable, "session %q has no write-ahead log to tail", s.name)
	}
	if from <= 0 {
		return nil, api.Errorf(api.CodeBadRequest, "tail sequence must be positive, got %d", from)
	}
	t, err := wal.NewTailer(log, from)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "open WAL tail: %v", err)
	}
	return t, nil
}

// closeWAL detaches and closes the session's log and waits for any
// in-flight snapshot write to settle. Further ingestion fails; queries
// keep working from the in-memory store. With finalSnap set and events
// beyond the last snapshot, a synchronous arena snapshot is written
// after the close — the log is flushed, so the snapshot covers every
// record and the next restore is a pure mmap with an empty WAL tail.
func (s *Session) closeWAL(finalSnap bool) error {
	s.ingestMu.Lock()
	if s.wal == nil {
		s.ingestMu.Unlock()
		return nil
	}
	events := s.walEvents
	walBytes := s.wal.AppendBytes()
	behind := s.snapEvery > 0 && events > s.snapEvents
	chainSeq, chainHead, hasChain := s.wal.ChainHead()
	hasChain = hasChain && chainSeq == events
	err := s.wal.Close()
	s.wal = nil
	if s.ioErr == nil {
		s.ioErr = fmt.Errorf("service: session %q: %w: log closed", s.name, ErrDurability)
	}
	s.ingestMu.Unlock()
	// Outside ingestMu: the snapshot goroutine needs it to finish, and
	// with the log gone no new snapshot can start.
	s.snapWG.Wait()
	if finalSnap && behind && err == nil {
		// Best-effort: a failed snapshot just means the next restore
		// replays the log, exactly as if the process had crashed here.
		t0 := time.Now()
		_, serr := writeArenaSnapshot(filepath.Join(s.dir, snapFile), events, walBytes, s.store.SnapshotEntries(), chainHead, hasChain)
		s.observeSnapshot(t0, serr)
	}
	return err
}

// Close flushes and closes every durable session's WAL, writing each
// session a final arena snapshot so the next Restore maps it back in
// without replaying the log. Durable sessions stop accepting events
// (their logs are gone) but remain queryable; a memory-only registry
// is unaffected. Use it for graceful shutdown or before handing the
// data directory to another process.
func (r *Registry) Close() error {
	r.mu.RLock()
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.RUnlock()
	var first error
	for _, s := range sessions {
		if err := s.closeWAL(true); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errReplayHalt marks a WAL record the labeler rejected during
// restore. It is handled like tail corruption: the valid prefix is
// kept and the log is truncated before the offending record.
var errReplayHalt = errors.New("service: replay halted")

// restoreArena rebuilds the session's store around an opened arena
// snapshot. The arena becomes the store's immutable base layer — its
// label bytes are served straight from the mapping, never decoded or
// copied — and only the WAL tail past the arena's byte watermark is
// replayed. With an empty tail (graceful shutdown) even the labeler
// rebuild is deferred to the first ingest (see ensureLabelerLocked),
// making restore O(open + index validation) regardless of session
// size.
//
// ok=false (with err nil) reports an arena the log cannot back — ahead
// of the durable log after an OS crash with Fsync off, or covering
// records the labeler rejects — in which case the caller discards it
// and replays the full log; the session's labeler and store are left
// for replayFull to reset.
func (s *Session) restoreArena(a *arena.Arena, walPath string, shards int) (ok bool, replayed, validSize int64, err error) {
	var size int64
	switch fi, err := os.Stat(walPath); {
	case err == nil:
		size = fi.Size()
	case errors.Is(err, fs.ErrNotExist):
		// no log at all: only an empty arena is consistent with it
	default:
		return false, 0, 0, err
	}
	if a.WALBytes() > size || a.Events() < 0 {
		return false, 0, 0, nil // snapshot ahead of the log: discard
	}
	// Probe the tail before committing to the arena: how many records
	// does the log hold past the snapshot's watermark?
	tailN, tailValid, err := wal.ScanFrom(walPath, a.WALBytes(), nil)
	if err != nil {
		return false, 0, 0, err
	}
	st, err := store.NewFromArena(s.g, s.cfg.Skeleton, shards, a)
	if err != nil {
		return false, 0, 0, err
	}
	if tailN == 0 {
		// The snapshot covers the whole log — the common case after a
		// graceful shutdown. Nothing to replay: the store serves the
		// mapped bytes, and the labeler (only needed for future ingest)
		// is rebuilt lazily on the first batch.
		s.store = st
		s.needLabelerReplay = a.Events() > 0
		return true, a.Events(), tailValid, nil
	}
	// A non-empty tail needs labeler state for the whole prefix, so the
	// log is replayed eagerly — but the arena still supplies the label
	// bytes for the records it covers, so the covered prefix skips the
	// encode and store staging that dominate a v1 restore.
	s.store = st
	n, vs, err := wal.Scan(walPath, func(i int, rec wal.Record) error {
		v, l, ierr := s.labelRecord(rec)
		if ierr != nil {
			return fmt.Errorf("%w at record %d: %v", errReplayHalt, i, ierr)
		}
		if int64(i) < a.Events() {
			return nil // the arena already holds this label
		}
		return s.store.StageOwned(v, s.store.Encode(l))
	})
	if errors.Is(err, errReplayHalt) {
		if int64(n) < a.Events() {
			// The log cannot reproduce the arena's covered prefix: the
			// arena holds labels the truncated log will never re-issue.
			// Discard it — replayFull resets the labeler and store.
			return false, 0, 0, nil
		}
		err = nil // tail halt: keep the valid prefix, truncate the rest
	}
	if err != nil {
		return false, 0, 0, err
	}
	s.store.Publish()
	return true, int64(n), vs, nil
}

// replayFull rebuilds the session from the log alone (optionally with
// a v1 snapshot supplying already-encoded label bytes for its covered
// prefix) — the pre-arena restore path, kept for v1 data directories
// and as the fallback when an arena snapshot is unusable. It resets
// the labeler and store, so it can follow an abandoned arena attempt.
func (s *Session) replayFull(walPath string, snap wal.Snapshot, shards int) (replayed, validSize int64, err error) {
	s.labeler = core.NewExecutionLabeler(s.g, s.cfg.Skeleton, s.cfg.Mode)
	s.store = store.NewSharded(s.g, s.cfg.Skeleton, shards)
	s.needLabelerReplay = false
	// Replay: every record rebuilds labeler state; the label bytes come
	// from the snapshot where it applies and from re-encoding beyond
	// it. Labels are staged as they replay and published once at the
	// end — one view rebuild for the whole log instead of one per
	// record.
	n, vs, err := wal.Scan(walPath, func(i int, rec wal.Record) error {
		v, l, ierr := s.labelRecord(rec)
		if ierr != nil {
			return fmt.Errorf("%w at record %d: %v", errReplayHalt, i, ierr)
		}
		enc, ok := snap.Labels[v]
		if !ok || int64(i) >= snap.Events {
			enc = s.store.Encode(l)
		}
		// Snapshot bytes: ReadSnapshot allocated enc for us alone, so it
		// is handed over without another copy.
		return s.store.StageOwned(v, enc)
	})
	if errors.Is(err, errReplayHalt) {
		err = nil // keep the valid prefix, truncate the rest below
	}
	if err != nil {
		return 0, 0, err
	}
	s.store.Publish()
	return int64(n), vs, nil
}

// Restore scans dir for session directories and rebuilds each session
// from its persisted specification, label snapshot and WAL: the full
// event log is replayed through a fresh labeler (labeling is
// deterministic, so replay reissues the exact same labels) while the
// snapshot supplies the already-encoded label bytes for the prefix it
// covers — those bytes go straight back into the store, never
// re-encoded. A torn or corrupt WAL tail is detected by CRC and
// dropped; a missing or corrupt snapshot falls back to full-replay
// encoding; a snapshot that claims more events than the log holds
// (possible only after an OS crash with Fsync off) is discarded.
//
// On a durable registry the restored sessions reopen their WALs —
// truncating any corrupt tail — and continue accepting events exactly
// where the log ends. On a memory-only registry the sessions are
// rebuilt read-write but nothing further is persisted and no file is
// modified, which is useful for inspecting a copied data directory.
//
// Restore returns the restored session names, sorted. A missing dir
// restores nothing. Corrupt session metadata (unreadable session.json
// or spec.xml) aborts with an error naming the session; already-open
// names collide like Create.
//
// dir is usually the registry's own DurableOptions.Dir, but any data
// directory is accepted: sessions restored from elsewhere keep
// persisting under *that* directory, while new Creates go to
// DurableOptions.Dir — deliberately, so a copied data directory can
// be inspected or adopted, but a typo here silently splits the data
// across two roots.
func (r *Registry) Restore(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	var restored []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sdir := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(sdir, metaFile)); errors.Is(err, fs.ErrNotExist) {
			continue // not a session directory
		}
		// Reserve the name before touching any file: restoring a name
		// that is already live — or mid-restore in a concurrent call —
		// would truncate that session's WAL out from under it when the
		// log is reopened below.
		r.mu.Lock()
		_, dup := r.sessions[e.Name()]
		dup = dup || r.creating[e.Name()]
		if !dup {
			r.creating[e.Name()] = true
		}
		r.mu.Unlock()
		if dup {
			return restored, fmt.Errorf("service: restore %s: session already open", e.Name())
		}
		s, err := r.restoreSession(sdir, e.Name())
		r.mu.Lock()
		delete(r.creating, e.Name())
		if err == nil {
			r.sessions[s.name] = s
		}
		r.mu.Unlock()
		if err != nil {
			return restored, fmt.Errorf("service: restore %s: %w", e.Name(), err)
		}
		restored = append(restored, s.name)
	}
	sort.Strings(restored)
	return restored, nil
}

// restoreSession rebuilds one session from its directory.
func (r *Registry) restoreSession(sdir, dirName string) (*Session, error) {
	restoreStart := time.Now()
	raw, err := os.ReadFile(filepath.Join(sdir, metaFile))
	if err != nil {
		return nil, err
	}
	var meta sessionMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("bad %s: %w", metaFile, err)
	}
	if meta.Format != metaFormat {
		return nil, fmt.Errorf("bad %s: format %d not supported", metaFile, meta.Format)
	}
	if meta.Name != dirName {
		return nil, fmt.Errorf("bad %s: names session %q", metaFile, meta.Name)
	}
	cfg, err := ParseConfig(meta.Skeleton, meta.RMode)
	if err != nil {
		return nil, fmt.Errorf("bad %s: %w", metaFile, err)
	}
	if meta.Shards < 0 {
		return nil, fmt.Errorf("bad %s: negative shard count %d", metaFile, meta.Shards)
	}
	cfg.Shards = meta.Shards
	// The identity is restored as persisted — possibly empty for
	// pre-field data — never regenerated: a restart must not make the
	// session look like a different one to its replicas.
	cfg.ID = meta.ID

	sf, err := os.Open(filepath.Join(sdir, specFile))
	if err != nil {
		return nil, err
	}
	sp, err := wfxml.DecodeSpec(sf)
	sf.Close()
	if err != nil {
		return nil, fmt.Errorf("bad %s: %w", specFile, err)
	}
	g, err := spec.Compile(sp)
	if err != nil {
		return nil, fmt.Errorf("bad %s: %w", specFile, err)
	}

	s := &Session{
		name:    meta.Name,
		g:       g,
		cfg:     cfg,
		labeler: core.NewExecutionLabeler(g, cfg.Skeleton, cfg.Mode),
		store:   store.NewSharded(g, cfg.Skeleton, r.shardsFor(cfg)),
	}
	s.bindMetrics(r.metrics)

	walPath := filepath.Join(sdir, walFile)
	s.walPath = walPath
	snapPath := filepath.Join(sdir, snapFile)

	// The snapshot decides the restore path. A v2 (arena) file is
	// mapped and adopted as the store's base layer — zero decoding,
	// zero copying, and with an empty WAL tail even the labeler rebuild
	// is deferred to the first ingest. A v1 file takes the legacy
	// decode-and-replay path; a missing or damaged file of either
	// version falls back to full log replay.
	var (
		replayed  int64
		validSize int64
		snapped   int64 // events the kept snapshot covers
		chainSeed integrity.Head
		seeded    bool // chainSeed covers the valid prefix already
	)
	a, aerr := arena.Open(snapPath)
	switch {
	case aerr == nil:
		var ok bool
		var arerr error
		if ok, replayed, validSize, arerr = s.restoreArena(a, walPath, r.shardsFor(cfg)); arerr != nil {
			a.Close()
			return nil, arerr
		}
		if ok {
			snapped = a.Events()
			if root, anchor, hasChain := a.Integrity(); hasChain {
				// A v3 snapshot must prove itself before it boots: its
				// label bytes against its Merkle root, and its chain head
				// against the WAL prefix it claims to cover. A CRC-valid
				// but rewritten snapshot (or a rewritten committed WAL
				// record below the watermark) dies here instead of serving
				// forged provenance. The same pass extends the chain over
				// the replayed tail, re-seeding the head the log continues
				// from.
				vstart := time.Now()
				var vframes int64
				verr := a.VerifyMerkle()
				var headWm integrity.Head
				if verr == nil {
					var n int64
					if headWm, n, verr = wal.ChainTo(walPath, 0, a.WALBytes(), integrity.Head{}); verr != nil {
						verr = fmt.Errorf("chain over covered WAL prefix: %w", verr)
					} else if headWm != anchor {
						verr = fmt.Errorf("WAL chain head %s at snapshot watermark (record %d) does not match the snapshot's anchor %s: history below the watermark was rewritten", headWm, a.Events(), anchor)
					}
					vframes += n
				}
				if verr == nil {
					var n int64
					if chainSeed, n, verr = wal.ChainTo(walPath, a.WALBytes(), validSize, headWm); verr != nil {
						verr = fmt.Errorf("chain over WAL tail: %w", verr)
					}
					vframes += n
				}
				if verr != nil {
					a.Close()
					return nil, fmt.Errorf("integrity: %w", verr)
				}
				r.metrics.chainVerified(vstart, vframes)
				seeded = true
				s.snapRoot, s.snapChain, s.snapIntegrity = root, anchor, true
			}
			break
		}
		// The arena is ahead of the log (possible only after an OS crash
		// with Fsync off) or inconsistent with it: discard it and rebuild
		// everything from the log alone.
		a.Close()
		if replayed, validSize, err = s.replayFull(walPath, wal.Snapshot{}, r.shardsFor(cfg)); err != nil {
			return nil, err
		}
	case errors.Is(aerr, arena.ErrVersion):
		// v1 snapshot. Count replayable records first, so a snapshot from
		// beyond the durable log can be rejected before it pollutes the
		// store; the session upgrades to v2 at its next snapshot.
		total, _, err := wal.Scan(walPath, nil)
		if err != nil {
			return nil, err
		}
		snap, err := wal.ReadSnapshot(snapPath)
		switch {
		case err == nil && snap.Events <= int64(total):
			snapped = snap.Events
		case err == nil, errors.Is(err, wal.ErrCorrupt):
			snap = wal.Snapshot{} // damaged or ahead of the log: full replay
		default:
			return nil, err
		}
		if replayed, validSize, err = s.replayFull(walPath, snap, r.shardsFor(cfg)); err != nil {
			return nil, err
		}
	case errors.Is(aerr, fs.ErrNotExist), errors.Is(aerr, arena.ErrCorrupt):
		if replayed, validSize, err = s.replayFull(walPath, wal.Snapshot{}, r.shardsFor(cfg)); err != nil {
			return nil, err
		}
	default:
		return nil, aerr
	}
	s.vertices.Store(int64(s.store.Count()))
	s.walEvents = replayed
	if snapped <= s.walEvents {
		s.snapEvents = snapped
	}
	if !seeded {
		// No v3 anchor to verify against (v1/v2 data, or a discarded
		// arena): hash the valid prefix so the reopened log continues
		// the chain and the session's next snapshot carries an anchor.
		vstart := time.Now()
		var n int64
		if chainSeed, n, err = wal.ChainTo(walPath, 0, validSize, integrity.Head{}); err != nil {
			return nil, fmt.Errorf("integrity: chain over WAL: %w", err)
		}
		r.metrics.chainVerified(vstart, n)
	}

	if r.durable != nil {
		// Sweep snapshot temp files orphaned by a crash mid-snapshot;
		// they are never valid (the rename is what commits a snapshot).
		if tmps, _ := filepath.Glob(filepath.Join(sdir, snapFile+".tmp*")); len(tmps) > 0 {
			for _, tmp := range tmps {
				os.Remove(tmp)
			}
		}
		// The replayed count seeds the log's absolute sequence numbers,
		// so WAL shipping keeps one continuous numbering across restarts.
		log, err := wal.Open(walPath, validSize, int64(replayed), r.durable.Fsync)
		if err != nil {
			return nil, err
		}
		log.SeedChain(chainSeed)
		s.attachWAL(sdir, log, r.durable, r.committer)
	}
	r.metrics.restores.Inc()
	r.metrics.restoreSec.Observe(time.Since(restoreStart))
	if n := int64(s.store.ArenaCount()); n > 0 {
		r.metrics.arenaMaps.Add(1)
		r.metrics.arenaVerts.Add(n)
	}
	return s, nil
}

// Integrity reports the session's live integrity anchors: the WAL hash
// chain head (folding in everything appended so far) with the sequence
// it covers, plus the Merkle root and watermark of the last integrity-
// stamped snapshot, if one exists. Sessions without a chained log —
// memory-only, closed, poisoned, or restored data predating the hash
// chain that has not re-seeded — report a typed CodeNotDurable error:
// integrity is unavailable, not violated.
func (s *Session) Integrity() (api.SessionIntegrity, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.wal == nil {
		return api.SessionIntegrity{}, api.Errorf(api.CodeNotDurable, "session %q has no open write-ahead log: integrity unavailable", s.name)
	}
	seq, head, ok := s.wal.ChainHead()
	if !ok {
		return api.SessionIntegrity{}, api.Errorf(api.CodeNotDurable, "session %q has no hash chain: integrity unavailable", s.name)
	}
	st := api.SessionIntegrity{Session: s.name, WALSeq: seq, ChainHead: head.String()}
	if s.snapIntegrity {
		st.MerkleRoot = s.snapRoot.String()
		st.SnapshotWatermark = s.snapEvents
	}
	return st, nil
}

// ChainState returns the WAL hash-chain head covering every event
// appended to the session so far, and the sequence it covers. ok is
// false when the session has no chained log. Unlike Integrity it
// returns the raw head — the form the replication and cluster planes
// compare.
func (s *Session) ChainState() (seq int64, head integrity.Head, ok bool) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.wal == nil {
		return 0, integrity.Head{}, false
	}
	return s.wal.ChainHead()
}
