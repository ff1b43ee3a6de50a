package service

import (
	"bytes"
	"cmp"
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
	"wfreach/internal/obs"
	"wfreach/internal/skeleton"
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
	snapFile = "labels.snap"  // latest label snapshot (internal/arena)
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
// once at creation. ID is the session's stable identity (Config.ID),
// absent in files written before the field existed. Older builds wrote
// keys this one has no field for — "skeleton" and "rmode", when a
// session could choose its labeling; they decode into nothing, and the
// decoder must stay that lenient.
type sessionMeta struct {
	Format int    `json:"format"`
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
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
	r := &Registry{
		sessions:      make(map[string]*Session),
		creating:      make(map[string]bool),
		opts:          opts,
		committer:     wal.NewCommitter(),
		metrics:       newNodeMetrics(obs.NewRegistry()),
		ingestScratch: scratchList[*ingestScratch]{fresh: newIngestScratch},
		reachScratch:  scratchList[*reachScratch]{fresh: func() *reachScratch { return new(reachScratch) }},
	}
	r.committer.SetMetrics(r.metrics.wal)
	return r, nil
}

// validateSessionName rejects names that cannot double as directory
// names. Sessions live at Dir/<name>, so the name must be a
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
	// spec.xml must decode again, on restore and on a replica, so it is
	// held to the cap DecodeSpec holds a document to.
	var specXML bytes.Buffer
	if err := wfxml.EncodeSpec(&specXML, s.g.Spec()); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if specXML.Len() > wfxml.MaxSpecBytes {
		return api.Errorf(api.CodeBadSpec, "specification encodes to a %d-byte %s, over the %d-byte cap", specXML.Len(), specFile, wfxml.MaxSpecBytes)
	}
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
		_, err := f.Write(specXML.Bytes())
		return err
	})
	if err != nil {
		cleanup()
		return fmt.Errorf("service: persist spec: %w: %v", ErrDurability, err)
	}

	meta, err := json.MarshalIndent(sessionMeta{Format: metaFormat, Name: s.name, ID: s.cfg.ID}, "", "  ")
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

// attachWAL gives the session its open log.
func (s *Session) attachWAL(dir string, log *wal.Log, opts *DurableOptions, committer *wal.Committer) {
	s.dir = dir
	s.wal = log
	s.committer = committer
	s.snapEvery = int64(opts.SnapshotEvery)
	log.SetMetrics(s.metrics.wal)
}

// frameRecord appends a labeled record to the batch frame being built
// in buf (see wal.AppendRecord). A record the format refuses — a
// payload past its cap — poisons the session like a failed write: the
// labeler has already taken it. Called with ingestMu held.
func (s *Session) frameRecord(buf []byte, open int, rec wal.Record) ([]byte, int, error) {
	buf, open, err := wal.AppendRecord(buf, open, rec)
	if err != nil {
		return buf, open, s.poisonLocked(err)
	}
	return buf, open, nil
}

// logFrames appends buf — whole frames, built here or teed as they came
// in (byte-identical to the WAL frame; see internal/api), carrying
// records labeled records — to the WAL in one wal.Log.AppendRaw. A
// write failure, or frames that carry another number of records than
// the batch says, poisons the session: the labeler has already advanced
// past the log, so accepting more events would make the on-disk state
// unrecoverable. Called with ingestMu held.
func (s *Session) logFrames(buf []byte, records int) error {
	if len(buf) == 0 {
		return nil
	}
	before := s.wal.AppendSeq()
	err := s.wal.AppendRaw(buf)
	if got := s.wal.AppendSeq() - before; err == nil && got != int64(records) {
		err = fmt.Errorf("frames carry %d records, the batch %d", got, records)
	}
	if err != nil {
		return s.poisonLocked(err)
	}
	s.walEvents += int64(records)
	return nil
}

// poisonLocked stops ingest on the session for good with a durability
// failure. Called with ingestMu held.
func (s *Session) poisonLocked(err error) error {
	s.ioErr = fmt.Errorf("service: session %q: %w: %v", s.name, ErrDurability, err)
	return s.ioErr
}

// commitWAL makes everything appended to the log up to seq durable —
// flushed, and fsynced as the registry is configured — before the
// batch is acknowledged. The flush goes through the registry's group
// committer (attachWAL always wires one), so it coalesces
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
	// A log closed under the batch set the reason first (closeWAL).
	s.ingestMu.Lock()
	if s.ioErr == nil {
		s.ioErr = fmt.Errorf("service: session %q: %w: %v", s.name, ErrDurability, err)
	}
	werr := s.ioErr
	s.ingestMu.Unlock()
	return werr
}

// writeArenaSnapshot writes an arena snapshot (see internal/arena):
// events is the covered record count, walBytes the log byte offset the
// covered prefix ends at, chain the WAL hash-chain head at that record,
// entries the encoded labels. The entry bytes are aliased, never copied
// — labels are write-once, so a concurrent ingest can only add entries
// the snapshot does not reference. The snapshot's Merkle root is
// returned.
func writeArenaSnapshot(path string, events, walBytes int64, entries []store.Entry, chain integrity.Head) (integrity.Head, error) {
	return arena.Write(path, arena.Meta{Events: events, WALBytes: walBytes, ChainHead: chain, HasChain: true}, entries)
}

// maybeSnapshot starts a label snapshot if enough events accumulated
// since the last one and none is in flight. The consistent view —
// label entries plus the event and byte watermarks — is captured under
// ingestMu. A failed log append publishes labels the log never got
// (appendBatch), and arena.Write refuses entries whose count is not the
// covered record count, so no snapshot holds a label its log lacks. The
// file write and fsync, which grow with session size, run in a
// goroutine off the ingest path. Failures are not fatal — the WAL alone
// is always sufficient for recovery — and are retried at a later batch
// because the watermark does not advance. The entries alias the
// store's slab — a snapshot mapping included — so the writer is one of
// the store's readers from the capture until the file is written, and
// evicts the mapping on its way out: the write read every mapped label,
// and a long-lived restored session would otherwise carry its whole
// snapshot resident from its first checkpoint on. Called after a
// successful commit, without ingestMu held.
func (s *Session) maybeSnapshot() {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.wal == nil || s.snapEvery <= 0 || s.walEvents-s.snapEvents < s.snapEvery || s.snapBusy {
		return
	}
	// The chain head at the captured watermark: under ingestMu the
	// log's append sequence equals walEvents (every logged record
	// advanced both, unless a batch poisoned the session with a record
	// count its frames did not carry), so the head now is the head of
	// exactly the covered prefix.
	events := s.walEvents
	chainSeq, chainHead, _ := s.wal.ChainHead()
	if chainSeq != events || !s.store.Enter() {
		return // no anchor, or deleted: nothing worth a snapshot
	}
	s.snapBusy = true
	walBytes := s.wal.AppendBytes()
	entries := s.store.SnapshotEntries()
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		t0 := time.Now()
		root, err := writeArenaSnapshot(filepath.Join(s.dir, snapFile), events, walBytes, entries, chainHead)
		s.observeSnapshot(t0, err)
		s.store.EvictArena()
		s.store.Leave()
		s.ingestMu.Lock()
		s.snapBusy = false
		if err == nil && events > s.snapEvents {
			s.snapEvents = events
			s.snapRoot, s.snapIntegrity = root, true
		}
		s.ingestMu.Unlock()
	}()
}

// WALSeq returns the sequence of the last event committed to the
// session's write-ahead log — an absolute, restart-stable position in
// the event stream (the count of events ever logged). It is frozen
// once the session's log poisons, and 0 once the log is closed.
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
// serving committed frames from the one whose first record has
// sequence from (1-based) — history off the disk, then live as batches
// commit. A from inside a logged frame is a typed CodeBadRequest: a
// frame is shipped whole. The caller owns closing it. A session whose
// log is closed cannot be tailed; the error is a typed CodeNotDurable.
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
	if errors.Is(err, wal.ErrMidFrame) {
		return nil, api.Errorf(api.CodeBadRequest, "tail sequence %d is not the first of a logged batch: %v", from, err)
	}
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "open WAL tail: %v", err)
	}
	return t, nil
}

// closeWAL detaches and closes the session's log and waits for any
// in-flight snapshot write to settle. Further ingestion fails with
// closed, unless a failure already stopped it; queries keep working
// from the in-memory store. With finalSnap set and events
// beyond the last snapshot, a synchronous arena snapshot is written
// after the close — the log is flushed, so the snapshot covers every
// record and the next restore is a pure mmap with an empty WAL tail
// (unless a failed append published labels the log lacks: maybeSnapshot).
func (s *Session) closeWAL(finalSnap bool, closed error) error {
	s.ingestMu.Lock()
	if s.wal == nil {
		s.ingestMu.Unlock()
		return nil
	}
	events := s.walEvents
	walBytes := s.wal.AppendBytes()
	chainSeq, chainHead, _ := s.wal.ChainHead()
	behind := s.snapEvery > 0 && events > s.snapEvents && chainSeq == events
	err := s.wal.Close()
	s.wal = nil
	if s.ioErr == nil {
		s.ioErr = closed
	}
	s.ingestMu.Unlock()
	// Outside ingestMu: the snapshot goroutine needs it to finish, and
	// with the log gone no new snapshot can start.
	s.snapWG.Wait()
	if finalSnap && behind && err == nil && s.store.Enter() {
		// Best-effort: a failed snapshot just means the next restore
		// replays the log, exactly as if the process had crashed here.
		t0 := time.Now()
		_, serr := writeArenaSnapshot(filepath.Join(s.dir, snapFile), events, walBytes, s.store.SnapshotEntries(), chainHead)
		s.observeSnapshot(t0, serr)
		s.store.EvictArena() // as in maybeSnapshot
		s.store.Leave()
	}
	return err
}

// Close flushes and closes every session's WAL, writing each session a
// final arena snapshot so the next Restore maps it back in without
// replaying the log. Sessions stop accepting events — a later batch is
// refused whole with a typed CodeNotDurable, and may be sent again
// after a restart — but remain queryable. Use it for graceful shutdown
// or before handing the data directory to another process.
func (r *Registry) Close() error {
	r.mu.RLock()
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.RUnlock()
	var first error
	for _, s := range sessions {
		if err := s.closeWAL(true, api.Errorf(api.CodeNotDurable, "session %q: its log is closed", s.name)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errArenaUnbacked reports a snapshot restore cannot use though its
// bytes are what was written: ahead of the durable log (an OS crash
// with Fsync off), covering a record the labeler rejects, past what
// the store's index addresses (a label region over 4 GiB), or holding
// labels the log never got (older builds snapshotted a failed session).
// restoreSession discards it and replays without it.
var errArenaUnbacked = errors.New("service: snapshot is not backed by the log")

// errFrameRefused reports a replay pass the labeler stopped inside a
// frame: the frame is not in the valid prefix, but the labeler took its
// first records. The pass's replayed.validSize is where the frame
// starts, and restoreSession replays again up to there, so the labeler
// holds exactly the prefix the log is cut to.
var errFrameRefused = errors.New("service: labeler refused a record inside a frame")

// replayed is what one pass over a session's log recovered: the records
// of its valid prefix and the frames they came in, that prefix's byte
// length, and the hash chain over it — what the reopened log is
// truncated to and continues.
type replayed struct {
	events, frames int64
	validSize      int64
	chain          *integrity.Chainer
}

// replay rebuilds the session's labeler and store in one walk of its
// log (wal.Walk), up to byte stop when stop is not negative: every
// frame's records run through the labeler and into the hash chain,
// whose head is finalized only at the snapshot's anchor. The walk ends
// where a wal.Walk does, or before a frame
// whose first record the labeler rejects — the valid prefix is kept,
// the caller truncates the rest. A rejection further into a frame ends
// the pass with errFrameRefused, the labeler having taken part of it.
//
// With an arena snapshot a, the store adopts the arena's label region —
// its label bytes are served from the mapping, never decoded or copied
// — and only records past its watermark are encoded and staged. The
// arena must prove itself first: its label bytes against its Merkle
// root, and the log against its anchor (wal.Anchor.Check) once the walk
// reaches the watermark. A log that fails the check is history the
// snapshot covers rewritten, and the error says so instead of booting
// on forged provenance; only a file shorter than the watermark (an OS
// crash with Fsync off) is errArenaUnbacked. When the snapshot covers
// the whole file (a graceful shutdown) the walk only hashes, and the
// labeler — needed for ingest, never for queries — is rebuilt at the
// first batch (ensureLabelerLocked).
//
// replay resets the labeler and the store, so it can be run again
// without the arena after errArenaUnbacked; the store it replaces is
// retired, which gives back a mapping the earlier pass adopted. a is
// the caller's until the store adopts it. It never writes a file.
func (s *Session) replay(a *arena.Arena, stop int64) (replayed, error) {
	path := filepath.Join(s.dir, walFile)
	var size int64
	switch fi, err := os.Stat(path); {
	case err == nil:
		size = fi.Size()
	case !errors.Is(err, fs.ErrNotExist):
		return replayed{}, err
	}
	s.labeler = core.NewExecutionLabeler(s.g, skeleton.TCL, core.RModeDesignated)
	if s.store != nil {
		s.store.Retire()
	}
	s.store = store.New(s.g)
	var anchor wal.Anchor
	if a != nil {
		if a.WALBytes() > size {
			return replayed{}, errArenaUnbacked
		}
		if err := a.VerifyMerkle(); err != nil {
			return replayed{}, fmt.Errorf("integrity: %w", err)
		}
		// The gauges follow the mapping, not the session: up here, down
		// where the store unmaps — which a cleanup may do long after the
		// session is gone, so the closure holds the node's metrics only.
		m, labels, mapped := s.metrics, int64(a.Count()), a.MappedBytes()
		if err := s.store.AttachArena(a, func() { m.arenaMapped(-1, labels, mapped) }); err != nil {
			return replayed{}, fmt.Errorf("%w: %v", errArenaUnbacked, err)
		}
		m.arenaMapped(+1, labels, mapped)
		// Verified and indexed: every page has been read once and none
		// is needed again until a query asks for it.
		s.store.EvictArena()
		_, head := a.Integrity()
		anchor = wal.Anchor{Records: a.Events(), Watermark: a.WALBytes(), Head: head}
	}
	hashOnly := a != nil && size == anchor.Watermark

	w := wal.OpenWalk(path, 0)
	defer w.Close()
	out := replayed{chain: integrity.NewChainer()}
	anchored := a == nil // till then records are labelled, not staged
walk:
	for stop < 0 || out.validSize < stop {
		if !anchored && out.validSize >= anchor.Watermark {
			if err := anchor.Check(out.events, out.validSize, out.chain.Head()); err != nil {
				return replayed{}, fmt.Errorf("integrity: %w", err)
			}
			if int64(a.Count()) != anchor.Records {
				return replayed{}, errArenaUnbacked // labels the log never got
			}
			anchored = true
		}
		if !w.Next() {
			break
		}
		recs := w.Records()
		for k := 0; k < len(recs) && !hashOnly; k++ {
			v, l, err := s.labelRecord(recs[k])
			switch {
			case err != nil && !anchored:
				// The log cannot re-issue a label the arena holds.
				return replayed{}, errArenaUnbacked
			case err != nil && k > 0:
				return out, errFrameRefused
			case err != nil:
				break walk
			case anchored:
				if err := s.store.Stage(v, l); err != nil {
					return replayed{}, err
				}
			}
		}
		out.chain.Add(w.Payload())
		out.events = w.Seq()
		out.frames++
		out.validSize = w.End()
	}
	if err := w.Err(); err != nil {
		return replayed{}, err
	}
	if !anchored {
		return replayed{}, fmt.Errorf("integrity: %w", anchor.Check(out.events, out.validSize, out.chain.Head()))
	}
	s.store.Publish()
	s.needLabelerReplay = hashOnly && anchor.Records > 0
	return out, nil
}

// Restore scans dir for session directories and rebuilds each session
// from its persisted specification, label snapshot and WAL: the event
// log is replayed through a fresh labeler (labeling is deterministic,
// so replay reissues the exact same labels) while the snapshot supplies
// the already-encoded label bytes for the prefix it covers — those
// bytes are served from the mapped file, never re-encoded. A torn or
// corrupt WAL tail is detected by CRC and dropped; a missing, corrupt
// or older-format snapshot falls back to full-replay encoding; a
// snapshot that claims more of the log than the log holds (possible
// only after an OS crash with Fsync off) is discarded; a snapshot whose
// anchors the log or its own labels contradict refuses the restore
// (see replay).
//
// The restored sessions reopen their WALs — truncating any corrupt
// tail — and continue accepting events exactly where the log ends.
//
// dir must be the registry's own data directory (DurableOptions.Dir,
// compared as absolute paths); any other is an error naming both, and
// nothing is opened or created. Restore returns the restored session names,
// sorted. A missing dir restores nothing. Corrupt session metadata
// (unreadable session.json or spec.xml) aborts with an error naming
// the session; already-open names collide like Create. To inspect a
// data directory without modifying it, use the offline auditor
// (internal/integrity/audit, cmd/wfverify).
func (r *Registry) Restore(dir string) ([]string, error) {
	// Callers pass the string the registry was opened with; only another
	// spelling is resolved (an absolute path of a relative one costs a
	// Getwd).
	if dir != r.opts.Dir && !sameDir(dir, r.opts.Dir) {
		return nil, fmt.Errorf("service: restore %s: this registry's data directory is %s", dir, r.opts.Dir)
	}
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

// sameDir reports whether a and b are one path once made absolute.
func sameDir(a, b string) bool {
	a, aerr := filepath.Abs(a)
	b, berr := filepath.Abs(b)
	return aerr == nil && berr == nil && a == b
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
	// The identity is restored as persisted — possibly empty for
	// pre-field data — never regenerated: a restart must not make the
	// session look like a different one to its replicas.
	cfg := Config{ID: meta.ID}

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

	s := &Session{name: meta.Name, g: g, cfg: cfg, dir: sdir}
	s.bindMetrics(r.metrics)

	// A snapshot is only a cache of the log: a usable one is mapped and
	// adopted as the store's first segment, and a missing, damaged or
	// older-format one (arena.ErrVersion) is replayed over — the log
	// re-issues every label byte for byte, and the next snapshot
	// overwrites the file in the current format. Once adopted the arena
	// is the store's, mapped for as long as the session is in use; where
	// the restore does not go through, or goes through without it, the
	// mapping is given back here: retiring the store if it got that far,
	// closing the arena (harmless a second time) if it did not. Only
	// this build's labeler writes the current format, so a snapshot of
	// labels an older build issued without R nodes, which would answer
	// wrongly beside those issued from now on, is older-format too.
	a, err := arena.Open(filepath.Join(sdir, snapFile))
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, arena.ErrCorrupt), errors.Is(err, arena.ErrVersion):
		a = nil
	default:
		return nil, err
	}
	restored := false
	defer func() {
		if restored {
			return
		}
		if s.store != nil {
			s.store.Retire()
		}
		if a != nil {
			a.Close()
		}
	}()
	replayStart := time.Now()
	rep, err := s.replay(a, -1)
	for errors.Is(err, errArenaUnbacked) || errors.Is(err, errFrameRefused) {
		// Again without the snapshot, and after a refusal inside a frame
		// only up to that frame: the labeler must not keep its records.
		stop := int64(-1)
		if errors.Is(err, errFrameRefused) {
			stop = rep.validSize
		}
		rep, err = s.replay(nil, stop) // retires the last pass's store
		if a != nil {
			a.Close()
			a = nil
		}
	}
	if err != nil {
		return nil, err
	}
	r.metrics.chainVerified(replayStart, rep.frames)
	s.vertices.Store(int64(s.store.Count()))
	s.walEvents = rep.events
	if a != nil {
		s.snapEvents = a.Events()
		s.snapRoot, _ = a.Integrity()
		s.snapIntegrity = true
	}

	// Sweep snapshot temp files orphaned by a crash mid-snapshot; they
	// are never valid (the rename is what commits a snapshot).
	if tmps, _ := filepath.Glob(filepath.Join(sdir, snapFile+".tmp*")); len(tmps) > 0 {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	// The replayed count seeds the log's absolute sequence numbers, so
	// WAL shipping keeps one continuous numbering across restarts, and
	// the replayed chain is the one the log continues.
	log, err := wal.Open(filepath.Join(sdir, walFile), rep.validSize, rep.events, r.opts.Fsync)
	if err != nil {
		return nil, err
	}
	log.SeedChain(rep.chain)
	s.attachWAL(sdir, log, &r.opts, r.committer)
	restored = true
	r.metrics.restores.Inc()
	r.metrics.restoreSec.Add(time.Since(restoreStart))
	return s, nil
}

// Integrity reports the session's live integrity anchors: the WAL hash
// chain head (folding in everything appended so far) with the sequence
// it covers, plus the Merkle root and watermark of the last integrity-
// stamped snapshot, if one exists. A session whose log is closed
// reports a typed CodeNotDurable error: integrity is unavailable, not
// violated.
func (s *Session) Integrity() (api.SessionIntegrity, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.wal == nil {
		return api.SessionIntegrity{}, api.Errorf(api.CodeNotDurable, "session %q has no open write-ahead log: integrity unavailable", s.name)
	}
	seq, head, _ := s.wal.ChainHead()
	st := api.SessionIntegrity{Session: s.name, WALSeq: seq, ChainHead: head.String()}
	if s.snapIntegrity {
		st.MerkleRoot = s.snapRoot.String()
		st.SnapshotWatermark = s.snapEvents
	}
	return st, nil
}

// ChainState returns the WAL hash-chain head covering every event
// appended to the session so far, and the sequence it covers. ok is
// false once the session's log is closed. Unlike Integrity it
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

// ChainAt returns the WAL hash-chain head over the session's first seq
// events: the live head when the log holds exactly seq records, else
// the head of a walk over the log's frames up to record seq — how a
// moved session that took writes past its sealed sequence still proves
// the history it was sealed at. A session whose log is closed answers
// CodeNotDurable; one whose log holds fewer than seq records, or no
// frame boundary at seq (every sealed sequence is one), an error.
func (s *Session) ChainAt(seq int64) (integrity.Head, error) {
	n, head, ok := s.ChainState()
	switch {
	case !ok:
		return integrity.Head{}, api.Errorf(api.CodeNotDurable, "session %q has no open log", s.name)
	case n < seq:
		return integrity.Head{}, fmt.Errorf("service: session %q: log holds %d records, not %d", s.name, n, seq)
	case n == seq:
		return head, nil
	}
	w := wal.OpenWalk(filepath.Join(s.dir, walFile), 0)
	defer w.Close()
	chain := integrity.NewChainer()
	for w.Seq() < seq && w.Next() {
		chain.Add(w.Payload())
	}
	if w.Seq() != seq { // a walk that failed to read ends short
		return integrity.Head{}, cmp.Or(w.Err(), fmt.Errorf("service: session %q: its log holds no frame boundary at record %d (one ends at %d)", s.name, seq, w.Seq()))
	}
	return chain.Head(), nil
}
