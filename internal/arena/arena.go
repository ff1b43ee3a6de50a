// Package arena implements the label-snapshot format (WFSNAP04): an
// mmap-able arena of encoded labels that a process opens in constant
// time and queries without decoding or copying anything, stamped with
// the two anchors that tie it to the session's history. The file is
// laid out so the *file itself* is the data structure:
//
//	[0:8)     magic "WFSNAP04" (ASCII)
//	[8:16)    uint64 LE  events      — WAL records covered by this snapshot
//	[16:24)   uint64 LE  walBytes    — byte offset of the end of the covered
//	                                   prefix in the session's events.wal
//	[24:32)   uint64 LE  count       — number of label entries
//	[32:40)   uint64 LE  labelBytes  — total label-region size in bytes
//	[40:44)   uint32 LE  labelCRC    — CRC-32 (IEEE) of the label region
//	[44:76)   merkleRoot — Merkle root over the label extents, in index
//	          order (leaf = SHA-256(0x00 || vertex || label))
//	[76:108)  chainHead  — WAL hash-chain head at record `events`
//	[108:116) uint64 LE  indexBytes  — index size in bytes
//	[116:120) uint32 LE  indexCRC    — CRC-32 (IEEE) of header[8:116) ++ index
//	[120:+indexBytes)    index       — count entries, ascending by vertex id:
//	                                     uvarint vertex − previous vertex
//	                                             (the first entry: vertex)
//	                                     uvarint length
//	[.. +labelBytes)     label bytes — each label's encoding, contiguous,
//	                                   in index order
//
// The index stores no offsets: the extents are contiguous in index
// order, so each one starts where the previous ended. Varints are
// minimal LEB128 (encoding/binary's uvarint) of at most five bytes, so
// a dense session's entry is two bytes, about a quarter of a label.
//
// This package is the file format and nothing else: it opens and
// validates an image, walks its extents in vertex order (Range), checks
// its checksums, and writes one. Looking a vertex up is the store's
// job — internal/store adopts the label region as a segment of its slab
// and indexes the extents next to its heap labels, so there is one
// lookup for both. Labels are write-once (Section 2.4 of the paper),
// which is what makes serving query results as sub-slices of the mapped
// file sound: the bytes can never change underneath a reader, by the
// same ownership contract internal/store already relies on for its heap
// labels.
//
// The index CRC covers the integrity fields, so a flipped header byte
// is caught structurally at Open; a *consistently* rewritten header is
// caught by cross-checking merkleRoot against the labels and chainHead
// against the WAL, which is what restore and wfverify do.
//
// On linux the file is mapped with mmap(MAP_SHARED, PROT_READ); other
// platforms fall back to reading the file into memory (same API, no
// zero-copy restore). The index is walked and its CRC verified at Open —
// about two bytes per label, so a million labels cost a 2 MB pass — while
// the label-region CRC is verified by Verify on demand, so opening a
// multi-gigabyte arena does not fault in every label page up front.
package arena

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"wfreach/internal/graph"
	"wfreach/internal/integrity"
)

// Magic identifies an arena snapshot file.
const Magic = "WFSNAP04"

const (
	headerSize = 120
	// maxVarint is the longest index varint: vertex deltas and lengths
	// both fit 32 bits.
	maxVarint = 5
	// maxLength is the longest label an index entry describes.
	maxLength = 1<<32 - 1
	// maxVertex is the largest vertex id (graph.VertexID is an int32).
	maxVertex = 1<<31 - 1
)

// maxCount caps the entry count Open accepts, so a corrupt header
// cannot claim more entries than vertex ids exist.
const maxCount = 1 << 31

// ErrCorrupt reports an arena file whose structure or checksum is
// invalid.
var ErrCorrupt = errors.New("arena: corrupt snapshot")

// ErrVersion reports a snapshot file with another WFSNAP.. magic (the
// WFSNAP01, WFSNAP02 and WFSNAP03 formats earlier builds wrote).
// Nothing reads those: a snapshot is a cache of the log, so callers
// treat the file as absent, replay the log, and overwrite it at the
// next snapshot.
var ErrVersion = errors.New("arena: snapshot format version not supported")

// Entry is one vertex → encoded-label pair handed to Write. Enc is
// aliased, never copied: the writer streams the bytes out directly.
type Entry struct {
	V   graph.VertexID
	Enc []byte
}

// Meta is the snapshot watermark written into the header.
type Meta struct {
	// Events is the number of WAL records the snapshot covers (each
	// record labels exactly one vertex).
	Events int64
	// WALBytes is the byte offset of the end of the covered prefix in
	// the session's WAL — where a restore resumes scanning.
	WALBytes int64
	// ChainHead is the WAL frame hash-chain head at record Events —
	// the anchor that ties the snapshot to the exact log prefix it
	// covers.
	ChainHead integrity.Head
	// HasChain reports that ChainHead is a real head. Open always sets
	// it; Write refuses a Meta without it, because a zero anchor would
	// make the next restore refuse to boot.
	HasChain bool
}

// Arena is an open snapshot: the raw file bytes (mapped on linux,
// read into memory elsewhere) plus the parsed header. The underlying
// bytes are immutable and every method but Close is safe for concurrent
// use; Close is safe against itself and Evict, not against a reader of
// the bytes (see Close).
type Arena struct {
	data   []byte // the whole file
	index  []byte // aliases data
	labels []byte // aliases data
	meta   Meta
	count  int
	mapped bool

	// mu orders Close against Close and Evict: the calls an owner makes
	// from more than one place (a deterministic release and a cleanup, a
	// checkpoint that evicts when it is done).
	mu sync.Mutex

	// merkleRoot is the header's label-extent Merkle root.
	merkleRoot integrity.Head
}

// Open opens the arena snapshot at path, mapping it on linux. The
// header and index are validated (magic, sizes, index CRC, sorted
// contiguous extents); the label region's CRC is left to Verify. A
// file in an older snapshot format is reported as ErrVersion, damage
// as ErrCorrupt.
func Open(path string) (*Arena, error) {
	data, mapped, err := openFile(path)
	if err != nil {
		return nil, err
	}
	a, err := parse(data, mapped)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return a, nil
}

// parse validates the header and index of a raw arena image.
func parse(data []byte, mapped bool) (*Arena, error) {
	if len(data) >= len(Magic) && string(data[:6]) == Magic[:6] && string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: magic %q", ErrVersion, data[:8])
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	events := binary.LittleEndian.Uint64(data[8:16])
	walBytes := binary.LittleEndian.Uint64(data[16:24])
	count := binary.LittleEndian.Uint64(data[24:32])
	labelBytes := binary.LittleEndian.Uint64(data[32:40])
	indexBytes := binary.LittleEndian.Uint64(data[108:116])
	indexCRC := binary.LittleEndian.Uint32(data[headerSize-4 : headerSize])
	size := uint64(len(data))
	if events > 1<<62 || walBytes > 1<<62 || count > maxCount || indexBytes > size || labelBytes > size {
		return nil, fmt.Errorf("%w: implausible header (events=%d walBytes=%d count=%d indexBytes=%d labelBytes=%d)",
			ErrCorrupt, events, walBytes, count, indexBytes, labelBytes)
	}
	if want := headerSize + indexBytes + labelBytes; size != want {
		return nil, fmt.Errorf("%w: file is %d bytes, header describes %d", ErrCorrupt, len(data), want)
	}
	index := data[headerSize : headerSize+indexBytes]
	labels := data[headerSize+indexBytes:]

	h := crc32.NewIEEE()
	h.Write(data[8 : headerSize-4])
	h.Write(index)
	if h.Sum32() != indexCRC {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}

	// The index must decode to exactly count entries in exactly
	// indexBytes, strictly ascending by vertex, whose lengths sum to
	// exactly labelBytes. Extents are contiguous by construction, so
	// that rules out overlaps, gaps and out-of-bounds slices in a single
	// pass.
	a := &Arena{
		data:   data,
		index:  index,
		labels: labels,
		meta:   Meta{Events: int64(events), WALBytes: int64(walBytes), HasChain: true},
		count:  int(count),
		mapped: mapped,
	}
	copy(a.merkleRoot[:], data[44:76])
	copy(a.meta.ChainHead[:], data[76:108])
	var v, next uint64
	pos := 0
	for i := 0; i < a.count; i++ {
		delta, n := uvarint(index[pos:])
		if n == 0 {
			return nil, fmt.Errorf("%w: entry %d: malformed vertex delta", ErrCorrupt, i)
		}
		pos += n
		length, n := uvarint(index[pos:])
		if n == 0 {
			return nil, fmt.Errorf("%w: entry %d: malformed length", ErrCorrupt, i)
		}
		pos += n
		if i > 0 && delta == 0 {
			return nil, fmt.Errorf("%w: index not strictly ascending at entry %d", ErrCorrupt, i)
		}
		if v += delta; v > maxVertex {
			return nil, fmt.Errorf("%w: entry %d: vertex id %d out of range", ErrCorrupt, i, v)
		}
		if length > labelBytes-next {
			return nil, fmt.Errorf("%w: entry %d extent [%d,+%d) exceeds label region of %d bytes", ErrCorrupt, i, next, length, labelBytes)
		}
		next += length
	}
	if pos != len(index) {
		return nil, fmt.Errorf("%w: %d index bytes left over after %d entries", ErrCorrupt, len(index)-pos, a.count)
	}
	if next != labelBytes {
		return nil, fmt.Errorf("%w: label region is %d bytes but extents cover %d", ErrCorrupt, labelBytes, next)
	}
	return a, nil
}

// uvarint decodes one index varint: minimal LEB128 of at most
// maxVarint bytes. n is 0 for a truncated, overlong or oversized one.
func uvarint(b []byte) (x uint64, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	for i := 0; i < len(b) && i < maxVarint; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 {
				return 0, 0 // a zero final byte could have been left off
			}
			return x, i + 1
		}
	}
	return 0, 0
}

// uvarintLen is the size of x's minimal LEB128 encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Meta returns the snapshot watermark.
func (a *Arena) Meta() Meta { return a.meta }

// Events returns the number of WAL records the snapshot covers.
func (a *Arena) Events() int64 { return a.meta.Events }

// WALBytes returns the WAL byte offset of the end of the covered
// prefix.
func (a *Arena) WALBytes() int64 { return a.meta.WALBytes }

// Count returns the number of labels in the arena.
func (a *Arena) Count() int { return a.count }

// Labels returns the label region: every label's bytes, contiguous, in
// Range order. It aliases the arena and must be treated as immutable.
func (a *Arena) Labels() []byte { return a.labels }

// Range calls fn for every entry in ascending vertex order until fn
// returns false, decoding the index as it goes — Open validated it, so
// nothing here can fail. The label bytes alias the arena.
func (a *Arena) Range(fn func(v graph.VertexID, enc []byte) bool) {
	var v, off uint64
	pos := 0
	for i := 0; i < a.count; i++ {
		delta, n := uvarint(a.index[pos:])
		pos += n
		length, n := uvarint(a.index[pos:])
		pos += n
		v += delta
		end := off + length
		if !fn(graph.VertexID(v), a.labels[off:end:end]) {
			return
		}
		off = end
	}
}

// Verify checks the label region against the header's CRC — the full
// integrity pass Open deliberately skips so that restore stays O(index).
// It faults in every page of the label region.
func (a *Arena) Verify() error {
	if crc32.ChecksumIEEE(a.labels) != binary.LittleEndian.Uint32(a.data[40:44]) {
		return fmt.Errorf("%w: label region checksum mismatch", ErrCorrupt)
	}
	return nil
}

// Integrity returns the snapshot's integrity anchors — the Merkle root
// over the label extents and the WAL chain head at the watermark.
func (a *Arena) Integrity() (merkleRoot, chainHead integrity.Head) {
	return a.merkleRoot, a.meta.ChainHead
}

// VerifyMerkle recomputes the Merkle root over the label extents and
// checks it against the header. Unlike the label-region CRC (Verify),
// the root also binds each extent to its vertex id and position, and
// it is the value the integrity API exposes to external anchors — a
// snapshot whose labels were rewritten CRC-consistently still fails
// here unless the header (and therefore the anchored root) was
// rewritten too. Like Verify, it faults in every page of the label
// region.
func (a *Arena) VerifyMerkle() error {
	m := integrity.NewMerkle()
	a.Range(func(v graph.VertexID, enc []byte) bool {
		m.Add(m.LabelLeaf(uint32(v), enc))
		return true
	})
	if m.Root() != a.merkleRoot {
		return fmt.Errorf("%w: label Merkle root mismatch", ErrCorrupt)
	}
	return nil
}

// MappedBytes returns the size of the arena's memory mapping: the
// file's length while it is mapped, zero for a heap copy and after
// Close.
func (a *Arena) MappedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.mapped {
		return 0
	}
	return int64(len(a.data))
}

// Evict tells the kernel the arena's pages need not stay resident. A
// full pass over the labels — VerifyMerkle and the store's indexing at
// restore, a checkpoint writing them out again — leaves the whole
// snapshot in the resident set for as long as the mapping lives.
// Evicted pages stay in the page cache and fault back in when a query
// touches them, so this is safe with readers at work and restores what
// mapping the file promised: only the bytes queries touch reach memory.
// A heap-backed arena is left alone, and so is a closed one.
func (a *Arena) Evict() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mapped {
		evictFile(a.data)
	}
}

// Close releases the mapping; closing again is a no-op. Whoever owns
// the arena must know that nothing can still read a slice into it: a
// store that adopted it ([store.Store.AttachArena]) owns it from then
// on and closes it when its last reader has left, and a caller that
// opened one only to inspect it closes it itself.
func (a *Arena) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	data, mapped := a.data, a.mapped
	a.data, a.index, a.labels, a.mapped = nil, nil, nil, false
	if !mapped {
		return nil
	}
	return unmapFile(data)
}

// Write atomically replaces the arena snapshot at path: entries are
// sorted by vertex (in place — the slice is scratch owned by the
// caller, its Enc bytes are only read), streamed through a buffered
// writer, synced, and renamed into place. Nothing is re-encoded and no
// label byte is copied: snapshotting a session costs one pass over the
// entries plus the file write itself. The Merkle root over the entries
// is computed during the same pass, stamped into the header next to
// meta.ChainHead, and returned so the caller can expose it without
// reopening the file. A meta without a chain head (HasChain false) is
// refused: the WAL alone always recovers, a snapshot anchored to
// nothing would not.
func Write(path string, meta Meta, entries []Entry) (integrity.Head, error) {
	if meta.Events < 0 || meta.WALBytes < 0 {
		return integrity.Head{}, fmt.Errorf("arena: negative watermark (events=%d walBytes=%d)", meta.Events, meta.WALBytes)
	}
	if !meta.HasChain {
		return integrity.Head{}, fmt.Errorf("arena: no WAL chain head to anchor the snapshot to")
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		switch {
		case a.V < b.V:
			return -1
		case a.V > b.V:
			return 1
		default:
			return 0
		}
	})
	index, err := encodeIndex(entries)
	if err != nil {
		return integrity.Head{}, err
	}
	var labelBytes uint64
	labelCRC := crc32.NewIEEE()
	merkle := integrity.NewMerkle()
	for _, e := range entries {
		labelBytes += uint64(len(e.Enc))
		labelCRC.Write(e.Enc)
		merkle.Add(merkle.LabelLeaf(uint32(e.V), e.Enc))
	}

	root := merkle.Root()
	hdr := make([]byte, headerSize)
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(meta.Events))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(meta.WALBytes))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(entries)))
	binary.LittleEndian.PutUint64(hdr[32:40], labelBytes)
	binary.LittleEndian.PutUint32(hdr[40:44], labelCRC.Sum32())
	copy(hdr[44:76], root[:])
	copy(hdr[76:108], meta.ChainHead[:])
	binary.LittleEndian.PutUint64(hdr[108:116], uint64(len(index)))
	indexCRC := crc32.NewIEEE()
	indexCRC.Write(hdr[8 : headerSize-4])
	indexCRC.Write(index)
	binary.LittleEndian.PutUint32(hdr[headerSize-4:], indexCRC.Sum32())

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return integrity.Head{}, fmt.Errorf("arena: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(hdr)
	if err == nil {
		_, err = tmp.Write(index)
	}
	if err == nil {
		// The label region is the bulk of the file; write it through a
		// modest buffer so small labels do not each pay a syscall.
		buf := make([]byte, 0, 1<<16)
		for _, e := range entries {
			if len(buf)+len(e.Enc) > cap(buf) && len(buf) > 0 {
				if _, err = tmp.Write(buf); err != nil {
					break
				}
				buf = buf[:0]
			}
			if len(e.Enc) >= cap(buf) {
				if _, err = tmp.Write(e.Enc); err != nil {
					break
				}
				continue
			}
			buf = append(buf, e.Enc...)
		}
		if err == nil && len(buf) > 0 {
			_, err = tmp.Write(buf)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return integrity.Head{}, fmt.Errorf("arena: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return integrity.Head{}, fmt.Errorf("arena: %w", err)
	}
	return root, nil
}

// encodeIndex validates entries, sorted by vertex, and returns their
// index in one allocation, sized by an exact length pass.
func encodeIndex(entries []Entry) ([]byte, error) {
	size := 0
	prev := graph.VertexID(0)
	for i, e := range entries {
		if e.V < 0 {
			return nil, fmt.Errorf("arena: negative vertex id %d", e.V)
		}
		if i > 0 && e.V == prev {
			return nil, fmt.Errorf("arena: vertex %d duplicated", e.V)
		}
		if uint64(len(e.Enc)) > maxLength {
			return nil, fmt.Errorf("arena: label of vertex %d is %d bytes, over the %d an index entry describes", e.V, len(e.Enc), uint64(maxLength))
		}
		size += uvarintLen(uint64(e.V-prev)) + uvarintLen(uint64(len(e.Enc)))
		prev = e.V
	}
	index := make([]byte, 0, size)
	prev = 0
	for _, e := range entries {
		index = binary.AppendUvarint(index, uint64(e.V-prev))
		index = binary.AppendUvarint(index, uint64(len(e.Enc)))
		prev = e.V
	}
	return index, nil
}
