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
// # Layout
//
// The store is one append-only label slab. Labels are encoded, in
// arrival order, straight into fixed segments that are never moved or
// resized; an index of 8-byte words — segment, offset and length packed
// into one — maps a vertex id to its extent. The index is paged: a
// slice of pages of [pageSize] words each, a page allocated the first
// time an id in its range is written, so dense ids (the expected case:
// runs number their vertices from 0) and sparse ones take the same path
// and an untouched id range costs one nil pointer.
//
// # Concurrency
//
// Writers — the service ingest pipeline and WAL replay — stage labels
// under one mutex ([Store.Stage]: one index probe for the duplicate
// check, one index store, and the label encoded straight into its
// extent) and make the batch visible with [Store.Publish], which stores
// the slab's write position into one atomic word. Readers
// ([Store.GetRaw], [Store.Reach], [Store.Lineage],
// [Store.SnapshotEntries], stats) take no lock. An extent is visible
// when it lies below the published position, and nothing below that
// position is ever rewritten, so reads are race-free by construction.
// The two directories — the slice of pages and the slice of segments —
// are immutable and replaced together behind one atomic pointer when
// either grows; a reader loads the published position first and the
// directories second, so every extent it can see was staged before the
// directories it holds were built, and its page and its segment are in
// them.
//
// # Arena-backed stores
//
// A store restored from an arena snapshot ([Store.AttachArena]) adopts
// the mapped label region as its first segment, read-only, and fills
// the index from the snapshot's extents in one pass: no label byte is
// copied, and mapped and heap labels are read by the same code.
// Post-snapshot ingest appends to heap segments after it. The aliasing
// is sound by the write-once contract: a published label never changes,
// and a committed snapshot file is never modified.
//
// # Lifetime
//
// Heap segments live as long as anything points at them; a mapping does
// not, so the store owns an adopted arena and counts the readers that
// may be looking at it. A caller that shares the store with something
// that can end it brackets each request — not each lookup — with
// [Store.Enter] and [Store.Leave]: one atomic add each way, the same
// two whether or not there is a mapping. [Store.Retire] ends the store:
// every later Enter is refused, and the last reader out unmaps. A store
// that is simply dropped gives its mapping back from a cleanup the
// garbage collector runs once the store is unreachable — which a reader
// between Enter and Leave keeps it from being.
package store

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// ErrNotStored marks a query for a vertex with no published label, as
// opposed to one whose stored label does not parse.
var ErrNotStored = errors.New("not stored")

// Entry is one vertex → encoded-label pair for batch staging — the
// same pair a snapshot is written from.
type Entry = arena.Entry

// An index word packs a label's extent: the segment's directory index
// plus one (so the zero word means "no label") in the top 16 bits, the
// byte offset within the segment in the middle 32, the length in the
// low 16. A slab position is the same word without the length, which
// makes "is this extent published" one shift and one compare.
const (
	lenBits = 16
	offBits = 32

	// maxLabel is the longest label a word addresses. The codec's
	// deepest label (label.MaxEntries entries) is under 3 KiB.
	maxLabel = 1<<lenBits - 1
	// maxRegion is the largest segment a word addresses; only an adopted
	// arena region can approach it.
	maxRegion = 1<<offBits - 1
	// maxSegments bounds the slab at 64 GiB of heap labels.
	maxSegments = 1<<(64-offBits-lenBits) - 1
)

// Heap segments double from minSegment to maxSegment, so a session of a
// few thousand labels holds a few tens of KiB and a large one wastes at
// most a label's length per MiB.
const (
	minSegment = 4 << 10
	maxSegment = 1 << 20
)

// A page holds the index words of pageSize consecutive vertex ids.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
)

type page [pageSize]atomic.Uint64

// position is the slab position at offset off of segment seg.
func position(seg, off int) uint64 { return uint64(seg+1)<<offBits | uint64(off) }

// word is the index word of the n-byte extent at that position.
func word(seg, off, n int) uint64 { return position(seg, off)<<lenBits | uint64(n) }

// dir is the store's two directories. A dir is immutable once
// published; growth replaces it.
type dir struct {
	pages []*page  // by vertex id >> pageShift; nil where no id was written
	segs  [][]byte // label segments; an adopted arena region is segs[0]
}

// extent resolves an index word against the published position.
func (d *dir) extent(w, published uint64) ([]byte, bool) {
	if w == 0 || w>>lenBits >= published {
		return nil, false
	}
	off, n := w>>lenBits&maxRegion, w&maxLabel
	return d.segs[w>>(offBits+lenBits)-1][off : off+n : off+n], true
}

// Store holds encoded labels for one run.
type Store struct {
	codec *label.Codec
	skel  *skeleton.Scheme

	// published is the slab position below which every extent is
	// visible; dir holds the directories. Readers load them in that
	// order.
	published atomic.Uint64
	dir       atomic.Pointer[dir]

	count      atomic.Int64 // published labels
	bits       atomic.Int64 // published label bits
	epoch      atomic.Int64 // publishes that made labels visible
	arenaCount atomic.Int64 // labels adopted from an arena

	// readers counts the requests between Enter and Leave; Retire sets
	// its sign bit. adopted is the arena behind segment 0, nil without
	// one: written by AttachArena before the store is shared.
	readers atomic.Int64
	adopted *mapping

	// mu serializes writers and guards the write cursor: the segment
	// being filled is the directory's last, used bytes of it are taken,
	// the next one will be nextSegment bytes, and staged/stagedBytes
	// count what the next Publish makes visible.
	mu          sync.Mutex
	used        int
	nextSegment int
	staged      int
	stagedBytes int
}

// New creates an empty store for runs of the grammar, answering queries
// with the given skeleton scheme.
func New(g *spec.Grammar, kind skeleton.Kind) *Store {
	s := &Store{codec: label.NewCodec(g), skel: skeleton.New(kind, g), nextSegment: minSegment}
	s.dir.Store(&dir{})
	return s
}

// NewSharded is New; the third argument is ignored.
//
// Deprecated: the store has no shards. The one caller left is
// benchmark/layers.go, which is frozen until an issue about the
// benchmark retires it (ROADMAP item 1(b)).
func NewSharded(g *spec.Grammar, kind skeleton.Kind, _ int) *Store { return New(g, kind) }

// NewFromArena builds a store over an already-open arena snapshot; see
// AttachArena for the ownership contract.
func NewFromArena(g *spec.Grammar, kind skeleton.Kind, a *arena.Arena) (*Store, error) {
	s := New(g, kind)
	if err := s.AttachArena(a, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// mapping is an adopted arena and how it is given back. It is an
// allocation of its own so that the cleanup registered on the Store can
// hold it without holding the Store.
type mapping struct {
	arena    *arena.Arena
	released func()
	once     sync.Once
}

// release unmaps the arena, once, whichever trigger gets here first or
// second: Retire, the last reader out after it, or the cleanup. A store
// without an arena has a nil mapping and nothing to release.
func (m *mapping) release() {
	if m == nil {
		return
	}
	m.once.Do(func() {
		m.arena.Close()
		if m.released != nil {
			m.released()
		}
	})
}

// retired is the sign bit of Store.readers.
const retired = math.MinInt64

// Enter opens a request against the store's labels and reports whether
// it may proceed: false means the store was retired, and the caller
// must not read (it need not call Leave). Every byte slice obtained
// between Enter and the matching Leave — GetRaw, Reach, LineagePage,
// SnapshotEntries — stays readable until that Leave, mapped or not. One
// atomic add; take it per request, not per lookup.
func (s *Store) Enter() bool {
	if s.readers.Add(1) < 0 {
		s.Leave()
		return false
	}
	return true
}

// Leave closes the request Enter opened. The last reader to leave a
// retired store gives the mapping back.
func (s *Store) Leave() {
	if s.readers.Add(-1) == retired {
		s.adopted.release()
	}
}

// Retire ends the store: every later Enter is refused, and an adopted
// mapping is unmapped as soon as the readers already inside have left —
// before Retire returns when there are none. Writers are not stopped
// (staging never reads the mapping), and the counters keep answering.
// Retiring twice is harmless.
func (s *Store) Retire() {
	// A compare-and-swap loop, not readers.Or: go1.24.0 on amd64 loses a
	// register across Or when its result is used.
	for {
		n := s.readers.Load()
		if n < 0 {
			return
		}
		if s.readers.CompareAndSwap(n, n|retired) {
			if n == 0 {
				s.adopted.release()
			}
			return
		}
	}
}

// AttachArena adopts an arena snapshot's label region as the store's
// first segment and indexes its extents, publishing them all. The store
// must be empty — attach is a restore-time operation, before any label
// is staged — so it can carry at most one arena. A snapshot the index
// cannot address (a label region over 4 GiB, a label over 64 KiB) is
// refused whole and leaves the store empty — and the arena with the
// caller, still open.
//
// Ownership: on success the arena is the store's. The store aliases its
// bytes in every GetRaw/SnapshotEntries result from then on (the
// backing file must stay unmodified, which the write-once snapshot
// contract guarantees) and closes it itself, exactly once: when a
// retired store's last reader leaves (see Retire), or from a cleanup
// once the store is unreachable. released, when non-nil, runs right
// after the unmap, possibly on the cleanup's goroutine; it must not
// refer to the store. A byte slice the store handed out is therefore
// good for as long as the store is reachable and, where the store can
// be retired under the caller, until the Leave of the request that
// fetched it.
func (s *Store) AttachArena(a *arena.Arena, released func()) error {
	if a == nil {
		return fmt.Errorf("store: nil arena")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dir.Load().segs) != 0 { // staging anything opens a segment
		return fmt.Errorf("store: arena must be attached to an empty store")
	}
	region := a.Labels()
	if uint64(len(region)) > maxRegion {
		return fmt.Errorf("store: snapshot label region of %d bytes exceeds the %d an index word addresses", len(region), maxRegion)
	}
	// Open has checked that the extents are contiguous in Range order,
	// so each one starts where the previous ended.
	var pages []*page
	var err error
	off := 0
	a.Range(func(v graph.VertexID, enc []byte) bool {
		if len(enc) > maxLabel {
			err = fmt.Errorf("store: snapshot label of vertex %d is %d bytes, an index word addresses %d", v, len(enc), maxLabel)
			return false
		}
		if i := int(v >> pageShift); i >= len(pages) || pages[i] == nil {
			pages = withPage(pages, i)
		}
		pages[v>>pageShift][v&(pageSize-1)].Store(word(0, off, len(enc)))
		off += len(enc)
		return true
	})
	if err != nil {
		return err
	}
	s.adopted = &mapping{arena: a, released: released}
	runtime.AddCleanup(s, (*mapping).release, s.adopted)
	s.dir.Store(&dir{pages: pages, segs: [][]byte{region}})
	s.used = len(region)
	s.count.Store(int64(a.Count()))
	s.arenaCount.Store(int64(a.Count()))
	s.bits.Store(int64(len(region)) * 8)
	// Past the whole region, so an empty label at its very end is
	// visible too.
	s.published.Store(position(1, 0))
	return nil
}

// ArenaCount returns the number of labels served from an adopted arena
// (zero when none is attached).
func (s *Store) ArenaCount() int { return int(s.arenaCount.Load()) }

// EvictArena tells the kernel the adopted mapping's pages need not stay
// resident (see [arena.Arena.Evict]): call it after a pass that read
// every label — restore's verification, a checkpoint — so the mapping
// goes back to costing what queries touch. A no-op without a mapping.
func (s *Store) EvictArena() {
	if s.adopted != nil {
		s.adopted.arena.Evict()
	}
}

// withPage returns a copy of pages, grown to cover index i, with a
// fresh page there.
func withPage(pages []*page, i int) []*page {
	out := make([]*page, max(len(pages), i+1))
	copy(out, pages)
	out[i] = new(page)
	return out
}

// Encode encodes a label with the store's codec without storing it.
// The codec is immutable, so Encode is safe to call concurrently.
//
// The ingest pipeline no longer calls it (Stage encodes in place); it
// stays for tests and the frozen benchmark/layers.go (ROADMAP item
// 1(b)).
func (s *Store) Encode(l label.Label) []byte { return s.codec.Encode(l) }

// Stage stages the label of v: its extent is reserved in the slab and
// the label encoded there, in place — no encoded copy exists outside
// the slab — invisible to readers until Publish. l is only read during
// the call. A duplicate vertex — staged, published or adopted from an
// arena — is refused and stages nothing.
func (s *Store) Stage(v graph.VertexID, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst, err := s.reserveLocked(v, s.codec.EncodedLen(l))
	if err == nil {
		s.codec.EncodeInto(dst, l)
	}
	return err
}

// AppendOwned stages a batch of already-encoded entries: Stage with a
// copy in place of the encoder. Neither the Entry slice nor any Enc is
// retained. On a duplicate vertex the batch stops there: entries before
// it are staged, the rest are not.
//
// The ingest pipeline no longer calls it; it stays for tests and the
// frozen benchmark/layers.go (ROADMAP item 1(b)).
func (s *Store) AppendOwned(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		dst, err := s.reserveLocked(e.V, len(e.Enc))
		if err != nil {
			return err
		}
		copy(dst, e.Enc)
	}
	return nil
}

// reserveLocked takes the next n bytes of the slab as the extent of
// v's label, records it in the index, and returns it for the caller to
// fill before the next Publish. Called with mu held.
func (s *Store) reserveLocked(v graph.VertexID, n int) ([]byte, error) {
	if v < 0 {
		return nil, fmt.Errorf("store: negative vertex id %d", v)
	}
	if n > maxLabel {
		return nil, fmt.Errorf("store: label of vertex %d is %d bytes, an index word addresses %d", v, n, maxLabel)
	}
	d := s.dir.Load()
	if i := int(v >> pageShift); i >= len(d.pages) || d.pages[i] == nil {
		d = &dir{pages: withPage(d.pages, i), segs: d.segs}
		s.dir.Store(d)
	}
	slot := &d.pages[v>>pageShift][v&(pageSize-1)]
	if slot.Load() != 0 {
		return nil, fmt.Errorf("store: vertex %d already stored", v)
	}
	// An empty label still takes a byte, so that every extent has a
	// position of its own for Publish to move past.
	need := max(n, 1)
	if len(d.segs) == 0 || s.used+need > len(d.segs[len(d.segs)-1]) {
		if len(d.segs) == maxSegments {
			return nil, fmt.Errorf("store: label slab is full (%d segments)", maxSegments)
		}
		// Appending writes a slot no published directory's length
		// covers, so sharing the backing array with readers is safe.
		d = &dir{pages: d.pages, segs: append(d.segs, make([]byte, max(s.nextSegment, need)))}
		s.dir.Store(d)
		s.used = 0
		s.nextSegment = min(2*s.nextSegment, maxSegment)
	}
	// The word is invisible until Publish moves past it, so it may be
	// stored before the bytes it addresses are written.
	seg, off := len(d.segs)-1, s.used
	slot.Store(word(seg, off, n))
	s.used += need
	s.staged++
	s.stagedBytes += n
	return d.segs[seg][off : off+n : off+n], nil
}

// Publish makes every staged label visible to readers with one atomic
// store of the slab's write position (the counters beside it are
// statistics). It returns the store's publish epoch, which increments
// once per Publish call that changed anything, and is safe to call
// concurrently with writers and readers.
func (s *Store) Publish() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged == 0 {
		return s.epoch.Load()
	}
	s.count.Add(int64(s.staged))
	s.bits.Add(int64(s.stagedBytes) * 8)
	s.staged, s.stagedBytes = 0, 0
	s.published.Store(position(len(s.dir.Load().segs)-1, s.used))
	return s.epoch.Add(1)
}

// Epoch returns the store's publish epoch: the number of Publish calls
// that made new labels visible.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// GetRaw returns the published encoded label bytes of v, without
// taking any lock: two atomic loads, one index load and a slice. The
// returned slice aliases the slab — a heap segment or the mapped
// snapshot file, the reader cannot tell — and callers must treat it as
// immutable (labels are write-once, so the bytes never change after
// publication). This is the read path concurrent services build on:
// fetch the two byte strings, then evaluate π on them with ReachBytes.
func (s *Store) GetRaw(v graph.VertexID) ([]byte, bool) {
	published := s.published.Load()
	d := s.dir.Load()
	// A negative id shifts to an index past any directory.
	i := int(uint32(v) >> pageShift)
	if i >= len(d.pages) || d.pages[i] == nil {
		return nil, false
	}
	return d.extent(d.pages[i][v&(pageSize-1)].Load(), published)
}

// from iterates the published labels of vertices start and up in
// ascending vertex order, over the position and directories loaded when
// the iteration starts.
func (s *Store) from(start int64) iter.Seq2[graph.VertexID, []byte] {
	start = max(start, 0)
	return func(yield func(graph.VertexID, []byte) bool) {
		published := s.published.Load()
		d := s.dir.Load()
		for i := start >> pageShift; i < int64(len(d.pages)); i++ {
			p := d.pages[i]
			if p == nil {
				continue
			}
			for j := max(start-i<<pageShift, 0); j < pageSize; j++ {
				if enc, ok := d.extent(p[j].Load(), published); ok && !yield(graph.VertexID(i<<pageShift|j), enc) {
					return
				}
			}
		}
	}
}

// ReachBytes answers v ;* w directly from two encoded labels, without
// touching the index, decoding, or allocating. It is safe for
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
// closure), in ascending order: LineagePage with no cursor and no limit
// — O(stored) early-exit walks.
func (s *Store) Lineage(v graph.VertexID) ([]graph.VertexID, error) {
	out, _, err := s.LineagePage(v, graph.None, 0)
	return out, err
}

// LineagePage returns, in ascending order, up to limit published
// vertices with id greater than after that reach v, and whether more
// remain (limit ≤ 0: all of them). It is one ReachBytes per stored
// label against the target's bytes, walking the index in vertex order
// from after+1 and stopping at the first ancestor past the page: a
// page costs the labels between its cursor and its end, not the store.
// No locks, and no allocation beyond the result. Over a concurrent
// ingest the walk sees the batches published before it started; labels
// are write-once, so every reported ancestor is correct. A stored label
// that fails to parse on the prefix its walk covers fails the page.
func (s *Store) LineagePage(v, after graph.VertexID, limit int) (page []graph.VertexID, more bool, err error) {
	bv, ok := s.GetRaw(v)
	if !ok {
		return nil, false, fmt.Errorf("store: vertex %d: %w", v, ErrNotStored)
	}
	for w, bw := range s.from(int64(after) + 1) {
		reaches, err := s.ReachBytes(bw, bv)
		if err != nil {
			return nil, false, fmt.Errorf("store: lineage of %d at vertex %d: %w", v, w, err)
		}
		if !reaches {
			continue
		}
		if limit > 0 && len(page) == limit {
			return page, true, nil
		}
		page = append(page, w)
	}
	return page, false, nil
}

// SnapshotEntries returns the published labels as a flat entry slice in
// ascending vertex order, without taking any lock: this is what the
// snapshot writer iterates, so snapshotting a session allocates one
// slice of headers and copies no label. The Enc slices alias the slab
// and must be treated as immutable. A publish that lands during the
// call is not included.
func (s *Store) SnapshotEntries() []Entry {
	out := make([]Entry, 0, s.Count())
	for v, enc := range s.from(0) {
		out = append(out, Entry{V: v, Enc: enc})
	}
	return out
}

// Count returns the number of published labels.
func (s *Store) Count() int { return int(s.count.Load()) }

// Bits returns the total published label bytes, in bits.
func (s *Store) Bits() int { return int(s.bits.Load()) }
