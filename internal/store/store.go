// Package store provides a provenance label store: a compact map from
// run vertices to their encoded reachability labels, answering
// queries directly from the stored bytes. This is the artifact a
// provenance-aware workflow system would persist next to its execution
// log — labels are written once (they are immutable, Section 2.4) and
// every "did A contribute to B?" question is answered from two byte
// strings, without the execution graph and without decoding them: π
// runs on the encoded bytes ([core.PiBytes]), two cursors stepping in
// lockstep to the first position where the labels' tree paths diverge.
// No query allocates per label, and bytes mapped from an arena are read
// where they lie. A query validates only the prefix it walks; damage to
// stored bytes is for the CRC, hash-chain and Merkle layers to catch.
//
// # Concurrency
//
// The store owns its synchronization. It is split into N shards keyed
// by an FNV-1a hash of the vertex id; each shard holds a small write
// mutex, a pending set of staged-but-unpublished labels, and an
// immutable read view behind an atomic pointer. Writers — the service
// ingest pipeline and WAL replay — stage a whole batch of labels under
// the shard mutexes ([Store.AppendOwned]) and make it visible with one
// [Store.Publish], which freezes the pending set as the newest chunk
// of the shard's view and republishes the view pointer, so view
// rebuilding is amortized over the batch. Readers ([Store.GetRaw],
// [Store.Reach], [Store.Lineage], [Store.SnapshotEntries], stats) only
// ever load view pointers: the query path acquires no locks, and
// because a published view is never mutated, reads are race-free by
// construction.
//
// # Arena-backed stores
//
// A store restored from an arena snapshot ([NewFromArena],
// [Store.AttachArena]) serves the snapshot's labels as slices
// pointing directly into the mapped file — no per-label allocation,
// no map building — with post-snapshot ingest staged into the normal
// shard views layered on top. The aliasing is sound by the same
// write-once contract that lets GetRaw share heap bytes: a published
// label never changes, and a committed snapshot file is never
// modified. The arena layer is immutable and lock-free like the shard
// views, so the concurrency story is unchanged.
package store

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// DefaultShards is the shard count used when New or NewSharded is
// given zero. Sixteen shards keep publish copies small without
// noticeable per-shard overhead at typical session sizes.
const DefaultShards = 16

// maxShards caps the shard count; more shards than this only adds
// fixed overhead to Publish, Lineage and SnapshotEntries.
const maxShards = 4096

// ErrNotStored marks a query for a vertex with no published label, as
// opposed to one whose stored label does not parse.
var ErrNotStored = errors.New("not stored")

// Entry is one vertex → encoded-label pair for batch staging.
type Entry struct {
	V   graph.VertexID
	Enc []byte
}

// ShardStat describes one shard of the store.
type ShardStat struct {
	// Vertices is the number of published labels in the shard.
	Vertices int `json:"vertices"`
	// Epoch counts how many times the shard's read view has been
	// republished.
	Epoch int64 `json:"epoch"`
}

// shardView is a shard's published, immutable read state: a list of
// frozen maps ("chunks") ordered largest (oldest) first, each vertex
// in exactly one chunk. Publishing freezes the pending map as a new
// chunk — no copying — and restores the geometric size invariant
// (every chunk at least twice its successor) by merging tail chunks
// into fresh maps, so a label is copied O(log n) times over the
// store's lifetime, a lookup probes O(log n) maps in the worst case
// and about two in expectation, and no published map is ever mutated.
type shardView struct {
	chunks []map[graph.VertexID][]byte
}

// get probes the chunks, largest first.
func (sv *shardView) get(v graph.VertexID) ([]byte, bool) {
	for _, m := range sv.chunks {
		if enc, ok := m[v]; ok {
			return enc, true
		}
	}
	return nil, false
}

// shard is one partition of the vertex → label map. The mutex guards
// only the pending (staged, unpublished) state; the view pointer is
// written under the mutex but read lock-free.
type shard struct {
	mu          sync.Mutex
	pending     map[graph.VertexID][]byte
	pendingBits int
	view        atomic.Pointer[shardView]
	count       atomic.Int64 // published labels in this shard
	epoch       atomic.Int64
	// Pad shards apart so a writer bouncing one shard's mutex does not
	// invalidate the cache line holding a neighbor's view pointer.
	_ [64]byte
}

// Store holds encoded labels for one run.
type Store struct {
	codec  *label.Codec
	skel   *skeleton.Scheme
	shards []shard
	mask   uint32
	count  atomic.Int64 // published labels (arena included)
	bits   atomic.Int64 // published label bits (arena included)
	epoch  atomic.Int64 // global publish epoch

	// arena, when non-nil, is the immutable base layer under every
	// shard view: a mapped snapshot serving its labels as slices
	// straight into the file (see AttachArena). Reads probe the shard
	// views first — post-attach ingest lives there — then fall back to
	// the arena. Labels are write-once and the two layers are disjoint
	// by the staging dup checks, so the probe order is a performance
	// choice, not a correctness one.
	arena atomic.Pointer[arena.Arena]
}

// New creates an empty store for runs of the grammar with
// DefaultShards shards, answering queries with the given skeleton
// scheme.
func New(g *spec.Grammar, kind skeleton.Kind) *Store {
	return NewSharded(g, kind, 0)
}

// NewFromArena builds a store whose base layer is an already-open
// arena snapshot: the mapped labels become readable immediately — no
// per-label allocation, no map building — and later ingest stages
// into the normal shard views layered over the arena. The store
// shares the arena for its whole lifetime and never closes it; see
// AttachArena for the ownership contract.
func NewFromArena(g *spec.Grammar, kind skeleton.Kind, shards int, a *arena.Arena) (*Store, error) {
	s := NewSharded(g, kind, shards)
	if err := s.AttachArena(a); err != nil {
		return nil, err
	}
	return s, nil
}

// AttachArena installs an arena snapshot as the store's immutable
// base layer. The store must be empty (attach is a restore-time
// operation, before any label is staged) and can carry at most one
// arena. Ownership: the store aliases the arena's bytes in every
// GetRaw/SnapshotEntries result from then on, so the arena must stay open —
// and its backing file must stay unmodified, which the write-once
// snapshot contract guarantees — for the lifetime of the store and of
// every byte slice it ever handed out. Callers must not Close the
// arena; it is released with the process.
func (s *Store) AttachArena(a *arena.Arena) error {
	if a == nil {
		return fmt.Errorf("store: nil arena")
	}
	if s.count.Load() != 0 {
		return fmt.Errorf("store: arena must be attached to an empty store (have %d labels)", s.count.Load())
	}
	if !s.arena.CompareAndSwap(nil, a) {
		return fmt.Errorf("store: arena already attached")
	}
	s.count.Add(int64(a.Count()))
	s.bits.Add(a.LabelBytes() * 8)
	return nil
}

// Arena returns the attached arena, or nil.
func (s *Store) Arena() *arena.Arena { return s.arena.Load() }

// ArenaCount returns the number of labels served from the arena base
// layer (zero when none is attached).
func (s *Store) ArenaCount() int {
	if a := s.arena.Load(); a != nil {
		return a.Count()
	}
	return 0
}

// NewSharded is New with an explicit shard count. The count is rounded
// up to a power of two and clamped to [1, 4096]; zero selects
// DefaultShards.
func NewSharded(g *spec.Grammar, kind skeleton.Kind, shards int) *Store {
	n := shardCount(shards)
	s := &Store{
		codec:  label.NewCodec(g),
		skel:   skeleton.New(kind, g),
		shards: make([]shard, n),
		mask:   uint32(n - 1),
	}
	empty := &shardView{}
	for i := range s.shards {
		s.shards[i].pending = make(map[graph.VertexID][]byte)
		s.shards[i].view.Store(empty)
	}
	return s
}

func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex hashes a vertex id (FNV-1a over its four little-endian
// bytes) to a shard index.
func (s *Store) shardIndex(v graph.VertexID) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	x := uint32(v)
	for i := 0; i < 4; i++ {
		h ^= x & 0xff
		h *= prime32
		x >>= 8
	}
	return int(h & s.mask)
}

func (s *Store) shardOf(v graph.VertexID) *shard {
	return &s.shards[s.shardIndex(v)]
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Encode encodes a label with the store's codec without storing it.
// The codec is immutable, so Encode is safe to call concurrently.
func (s *Store) Encode(l label.Label) []byte { return s.codec.Encode(l) }

// AppendOwned stages a batch of entries, grouped by shard so each
// shard's mutex is taken once per batch rather than once per label.
// Ownership of every Enc transfers to the store; the Entry slice
// itself is not retained. On a duplicate vertex the batch stops there:
// entries before it are staged, the rest are not.
func (s *Store) AppendOwned(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	// The common batch is far larger than the shard count, so the
	// bucketing cost is dwarfed by the per-shard locking it saves.
	buckets := make([][]Entry, len(s.shards))
	for _, e := range entries {
		i := s.shardIndex(e.V)
		buckets[i] = append(buckets[i], e)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range b {
			if err := s.stageLocked(sh, e.V, e.Enc); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// stageLocked records one pending label. Called with sh.mu held.
// Labels are write-once across every layer: staged, published, and
// arena-resident vertices all reject a second write.
func (s *Store) stageLocked(sh *shard, v graph.VertexID, enc []byte) error {
	if _, dup := sh.pending[v]; dup {
		return fmt.Errorf("store: vertex %d already stored", v)
	}
	if _, dup := sh.view.Load().get(v); dup {
		return fmt.Errorf("store: vertex %d already stored", v)
	}
	if a := s.arena.Load(); a != nil {
		if _, dup := a.Get(v); dup {
			return fmt.Errorf("store: vertex %d already stored", v)
		}
	}
	sh.pending[v] = enc
	sh.pendingBits += len(enc) * 8
	return nil
}

// Publish makes every staged label visible to readers by republishing
// the read view of each dirty shard: the pending map itself is frozen
// as the view's newest chunk (no copying on the publish path), and
// tail chunks are merged — into fresh maps, published chunks are never
// mutated — whenever the geometric size invariant calls for it.
// Publish returns the store's publish epoch, which increments once per
// Publish call that changed anything, and is safe to call concurrently
// with writers and readers.
func (s *Store) Publish() int64 {
	changed := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.pending) > 0 {
			old := sh.view.Load()
			chunks := make([]map[graph.VertexID][]byte, len(old.chunks), len(old.chunks)+1)
			copy(chunks, old.chunks)
			chunks = append(chunks, sh.pending)
			// Binary-counter compaction: merge the two tail chunks until
			// every chunk is at least twice its successor. Each label is
			// merged O(log n) times over the shard's lifetime.
			for len(chunks) >= 2 {
				a, b := chunks[len(chunks)-2], chunks[len(chunks)-1]
				if len(a) >= 2*len(b) {
					break
				}
				m := make(map[graph.VertexID][]byte, len(a)+len(b))
				maps.Copy(m, a)
				maps.Copy(m, b)
				chunks = append(chunks[:len(chunks)-2], m)
			}
			sh.view.Store(&shardView{chunks: chunks})
			sh.count.Add(int64(len(sh.pending)))
			s.count.Add(int64(len(sh.pending)))
			s.bits.Add(int64(sh.pendingBits))
			sh.pending = make(map[graph.VertexID][]byte)
			sh.pendingBits = 0
			sh.epoch.Add(1)
			changed = true
		}
		sh.mu.Unlock()
	}
	if changed {
		return s.epoch.Add(1)
	}
	return s.epoch.Load()
}

// Epoch returns the store's publish epoch: the number of Publish calls
// that made new labels visible.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// ShardStats returns a point-in-time snapshot of every shard's
// published label count and view epoch, in shard order.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i := range s.shards {
		out[i] = ShardStat{
			Vertices: int(s.shards[i].count.Load()),
			Epoch:    s.shards[i].epoch.Load(),
		}
	}
	return out
}

// GetRaw returns the published encoded label bytes of v, without
// taking any lock. The returned slice is the store's own backing
// array — or, on an arena-backed store, a slice pointing straight
// into the mapped snapshot file — and callers must treat it as
// immutable (labels are write-once, so the bytes never change after
// publication). This is the read path concurrent services build on:
// fetch the two byte strings from the shard views, then evaluate π on
// them with ReachBytes.
func (s *Store) GetRaw(v graph.VertexID) ([]byte, bool) {
	// Arena first: a vertex is never both arena-resident and staged
	// (stage rejects duplicates of arena vertices), so the probe order
	// is free to favor the common case. On an arena-backed store most
	// labels live in the arena and its dense lookup is one bounds
	// check; on a heap store the arena pointer is nil and this is a
	// single predictable branch.
	if a := s.arena.Load(); a != nil {
		if enc, ok := a.Get(v); ok {
			return enc, true
		}
	}
	return s.shardOf(v).view.Load().get(v)
}

// ReachBytes answers v ;* w directly from two encoded labels, without
// touching the vertex map, decoding, or allocating. It is safe for
// concurrent use: the codec and skeleton scheme are immutable after
// New.
func (s *Store) ReachBytes(bv, bw []byte) (bool, error) {
	return core.PiBytes(s.codec, s.skel, bv, bw)
}

// Reach answers v ;* w from the stored bytes alone, lock-free.
func (s *Store) Reach(v, w graph.VertexID) (bool, error) {
	bv, ok := s.GetRaw(v)
	if !ok {
		return false, fmt.Errorf("store: vertex %d: %w", v, ErrNotStored)
	}
	bw, ok := s.GetRaw(w)
	if !ok {
		return false, fmt.Errorf("store: vertex %d: %w", w, ErrNotStored)
	}
	return s.ReachBytes(bv, bw)
}

// Lineage returns the published vertices that reach v (its provenance
// closure), in ascending order: one ReachBytes per stored label against
// the target's bytes — O(stored) early-exit walks, no locks, and no
// allocation beyond the result. Shard views are loaded independently,
// so over a concurrent ingest the scan sees each shard at whatever
// batch it last published; labels are write-once, so every reported
// ancestor is correct. A stored label that fails to parse on the
// prefix its walk covers fails the scan.
func (s *Store) Lineage(v graph.VertexID) ([]graph.VertexID, error) {
	bv, ok := s.GetRaw(v)
	if !ok {
		return nil, fmt.Errorf("store: vertex %d: %w", v, ErrNotStored)
	}
	var out []graph.VertexID
	var scanErr error
	visit := func(w graph.VertexID, bw []byte) bool {
		reaches, err := s.ReachBytes(bw, bv)
		if err != nil {
			scanErr = fmt.Errorf("store: lineage of %d at vertex %d: %w", v, w, err)
			return false
		}
		if reaches {
			out = append(out, w)
		}
		return true
	}
	if a := s.arena.Load(); a != nil {
		if a.Range(visit); scanErr != nil {
			return nil, scanErr
		}
	}
	for i := range s.shards {
		for _, m := range s.shards[i].view.Load().chunks {
			for w, bw := range m {
				if !visit(w, bw) {
					return nil, scanErr
				}
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// SnapshotEntries returns the published labels as a flat entry slice
// — arena base layer first, then every shard's chunks — without
// taking any lock and without building a map: this is what the
// snapshot writer iterates, so snapshotting a session allocates one
// slice of headers instead of a second copy of the whole label map.
// The Enc slices alias the store's (or the mapped arena's) bytes and
// must be treated as immutable; entries are in no particular order.
// Concurrent publishes may or may not be included, shard by shard:
// each shard contributes whatever it last published.
func (s *Store) SnapshotEntries() []Entry {
	out := make([]Entry, 0, s.Count())
	if a := s.arena.Load(); a != nil {
		a.Range(func(v graph.VertexID, enc []byte) bool {
			out = append(out, Entry{V: v, Enc: enc})
			return true
		})
	}
	for i := range s.shards {
		for _, m := range s.shards[i].view.Load().chunks {
			for v, enc := range m {
				out = append(out, Entry{V: v, Enc: enc})
			}
		}
	}
	return out
}

// Count returns the number of published labels.
func (s *Store) Count() int { return int(s.count.Load()) }

// Bits returns the total published label bytes, in bits.
func (s *Store) Bits() int { return int(s.bits.Load()) }
