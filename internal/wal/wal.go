// Package wal is the append-only write-ahead log of execution events
// that makes a labeling session durable: after a crash the log is
// replayed through a fresh labeler, and because labeling is
// deterministic the replay reissues the exact same labels. (The label
// snapshot that lets recovery skip re-encoding is internal/arena's.)
//
// # On-disk format
//
// The byte-level layout is specified in the wire-format appendix of
// ARCHITECTURE.md; the summary:
//
// A log is a sequence of frames, each
//
//	uint32 LE  payload length N
//	uint32 LE  CRC-32 (IEEE) of the payload
//	N bytes    payload
//
// with the payload a run of one or more records, each encoding one
// execution event: a kind byte that also carries the predecessor count,
// the event's uvarint fields, and each predecessor as the zig-zag
// uvarint of the new vertex minus it. A writer puts one acknowledged
// batch in one frame, starting another only where MaxPayload forces it.
// Logs written by earlier builds hold one record per frame and may hold
// the classic kinds, which spell the count and every predecessor id out
// in full; they are read, never written, always alone in their frame,
// and one log may hold both. Every varint is minimal LEB128 of at most
// five bytes and a record ends where its fields do, so a run of records
// that decodes has exactly one payload. Payload fields are written by
// appendRecord, measured by frameLen and read by decodeRecord, and
// nowhere else; decodePayload is the one walk over a payload's run.
//
// Sequences count records, not frames: the first record in the file is
// 1, and a frame of k records advances the sequence by k. The hash chain
// folds whole frames, so a chain head exists at frame boundaries only.
//
// A torn write — a crash mid-append — leaves a short or CRC-mismatched
// frame at the tail; Scan detects it, reports the valid prefix, and
// Open truncates the garbage before appending. A frame that passes its
// CRC but does not decode whole is damage the same way: it is never
// taken in part.
// Corruption is only ever accepted at the tail: a bad frame hides
// everything after it, by design, because the event stream is
// meaningful only as a prefix.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

// Record kinds: the low three bits of the first payload byte. A compact
// kind's high five bits hold the predecessor count; countEscape there
// means the count less countEscape follows as a uvarint. The classic
// kinds, written by earlier builds, are a whole byte each and are
// decode-only.
const (
	kindRefClassic   = 0x01 // run.Event, absolute predecessor ids
	kindNamedClassic = 0x02 // core.NamedEvent, absolute predecessor ids
	kindRef          = 0x03 // run.Event: specification-reference identified
	kindNamed        = 0x04 // core.NamedEvent: module-name identified

	kindMask    = 0x07
	countShift  = 3
	countEscape = 0xff >> countShift
)

// maxVarint is the longest varint a payload holds: ids take 31 bits, a
// zig-zag predecessor delta 32, and a count or a name length is bounded
// by MaxPayload.
const maxVarint = 5

// MaxPayload caps a record payload at 1 MiB. Real events are tens of
// bytes; the cap stops a corrupt length prefix from allocating
// gigabytes before the CRC check can reject it. The cap is part of the
// frame format: internal/api reuses it for the binary ingest frame,
// which is byte-identical to the WAL frame.
const MaxPayload = 1 << 20

// FrameHeaderSize is the fixed frame prefix: a uint32 LE payload
// length followed by a uint32 LE CRC-32 (IEEE) of the payload.
const FrameHeaderSize = 8

// ErrCorrupt reports frames or payloads whose checksum or structure is
// invalid.
var ErrCorrupt = errors.New("wal: corrupt data")

// Record is one logged execution event, in either of the two event
// forms the service ingests.
type Record struct {
	// Named selects which event field is meaningful.
	Named bool
	// Ref is the specification-reference form (valid when !Named).
	Ref run.Event
	// NamedEv is the module-name form (valid when Named).
	NamedEv core.NamedEvent
}

// RefRecord wraps a reference-identified event as a Record.
func RefRecord(ev run.Event) Record { return Record{Ref: ev} }

// NamedRecord wraps a name-identified event as a Record.
func NamedRecord(ev core.NamedEvent) Record { return Record{Named: true, NamedEv: ev} }

// payloadReader decodes uvarint fields with bounds checking.
type payloadReader struct {
	b   []byte
	pos int
}

// uvarint reads one field: minimal LEB128 of at most maxVarint bytes.
// An overlong encoding (a final zero byte that could have been left
// off) is refused like a truncated one, or one record would have two
// frames of the same form.
func (r *payloadReader) uvarint() (uint64, error) {
	b := r.b[r.pos:]
	if len(b) > 0 && b[0] < 0x80 {
		r.pos++
		return uint64(b[0]), nil
	}
	var x uint64
	for i := 0; i < len(b) && i < maxVarint; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 {
				break
			}
			r.pos += i + 1
			return x, nil
		}
	}
	return 0, fmt.Errorf("%w: bad varint at payload offset %d", ErrCorrupt, r.pos)
}

// id reads a field that must fit the int32 both vertex and graph ids
// are held in: a wider value cannot be re-framed to the same bytes.
func (r *payloadReader) id(what string) (int32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %s id %d out of range", ErrCorrupt, what, v)
	}
	return int32(v), nil
}

func (r *payloadReader) vertex() (graph.VertexID, error) {
	v, err := r.id("vertex")
	return graph.VertexID(v), err
}

// preds reads the n predecessors of vertex v — the record's last field
// — onto the end of *arena and returns the appended part, capped so the
// caller cannot grow into what the arena holds next. A compact record
// stores each as the zig-zag delta v − p, a classic one as the id
// itself. On an error the arena is as it was.
func (r *payloadReader) preds(arena *[]graph.VertexID, n uint64, v graph.VertexID, classic bool) ([]graph.VertexID, error) {
	if n > uint64(len(r.b)-r.pos) { // each pred takes ≥ 1 byte
		return nil, fmt.Errorf("%w: predecessor count %d exceeds payload", ErrCorrupt, n)
	}
	start := len(*arena)
	out := *arena
	if n > 0 {
		out = slices.Grow(out, int(n))
	}
	for range n {
		if classic {
			p, err := r.vertex()
			if err != nil {
				return nil, err
			}
			out = append(out, p)
			continue
		}
		z, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		p := int64(v) - (int64(z>>1) ^ -int64(z&1))
		if p < 0 || p > math.MaxInt32 {
			return nil, fmt.Errorf("%w: predecessor id %d out of range", ErrCorrupt, p)
		}
		out = append(out, graph.VertexID(p))
	}
	if n == 0 {
		return nil, nil
	}
	*arena = out
	return out[start:len(out):len(out)], nil
}

// AppendFrame appends one record as a frame of its own — the 8-byte
// header (FrameHeaderSize) followed by the payload — onto buf and
// returns the extended slice. A record whose payload would exceed
// MaxPayload, or that carries a negative id — which the decoder would
// refuse to read back — is rejected with buf unchanged.
func AppendFrame(buf []byte, rec Record) ([]byte, error) {
	buf, _, err := AppendRecord(buf, -1, rec)
	return buf, err
}

// AppendRecord appends rec to the frame that starts at buf[open:] — the
// last frame in buf — rewriting that frame's header, or to a new frame
// at the end of buf when open is negative or rec would carry the open
// frame's payload past MaxPayload. It returns the extended slice and
// the offset of the frame rec went into, the open to pass with the next
// record of the same run. buf holds whole frames before and after the
// call, so a batch appended record by record is already its frames: one,
// unless it outgrows MaxPayload. A record it refuses (see AppendFrame)
// leaves buf and open as they were.
func AppendRecord(buf []byte, open int, rec Record) ([]byte, int, error) {
	if rec.Named {
		return AppendNamedRecord(buf, open, rec.NamedEv.V, rec.NamedEv.Name, rec.NamedEv.Preds)
	}
	return AppendRefRecord(buf, open, rec.Ref.V, int32(rec.Ref.Ref.Graph), rec.Ref.Ref.V, rec.Ref.Preds)
}

// AppendRefRecord is AppendRecord on the fields of a reference-form
// event, for any int32 vertex-id type: a Record's, or the wire form's
// plain int32, which the SDK frames without building a Record first.
func AppendRefRecord[V ~int32](buf []byte, open int, v V, g int32, sv V, preds []V) ([]byte, int, error) {
	return appendRecord(buf, open, kindRef, v, "", g, sv, preds)
}

// AppendNamedRecord is AppendRefRecord for a name-form event.
func AppendNamedRecord[V ~int32](buf []byte, open int, v V, name string, preds []V) ([]byte, int, error) {
	return appendRecord(buf, open, kindNamed, v, name, 0, 0, preds)
}

// appendRecord writes one record of either kind into the open frame or
// a new one; a kindNamed event has no g and sv, a kindRef one no name.
// The open frame's length and CRC are extended, not recomputed: CRC-32
// continues over appended bytes.
func appendRecord[V ~int32](buf []byte, open int, kind byte, v V, name string, g int32, sv V, preds []V) ([]byte, int, error) {
	if v < 0 || g < 0 || sv < 0 || slices.ContainsFunc(preds, func(p V) bool { return p < 0 }) {
		return buf, open, fmt.Errorf("wal: record of vertex %d carries a negative id", v)
	}
	fields := uvarintLen(g) + uvarintLen(sv)
	if kind == kindNamed {
		fields = uvarintLen(len(name)) + len(name)
	}
	n := frameLen(v, fields, preds) - FrameHeaderSize
	if n > MaxPayload {
		return buf, open, fmt.Errorf("wal: record payload %d bytes exceeds the %d-byte format cap", n, MaxPayload)
	}
	if open < 0 || len(buf)-open-FrameHeaderSize+n > MaxPayload {
		open = len(buf)
		buf = append(buf, make([]byte, FrameHeaderSize)...) // an empty payload's CRC is 0
	}
	start := len(buf)
	buf = append(buf, byte(min(len(preds), countEscape))<<countShift|kind)
	if len(preds) >= countEscape {
		buf = binary.AppendUvarint(buf, uint64(len(preds)-countEscape))
	}
	buf = binary.AppendUvarint(buf, uint64(v))
	if kind == kindNamed {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	} else {
		buf = binary.AppendUvarint(buf, uint64(g))
		buf = binary.AppendUvarint(buf, uint64(sv))
	}
	for _, p := range preds {
		buf = binary.AppendUvarint(buf, zigzag(v, p))
	}
	hdr := buf[open : open+FrameHeaderSize]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(buf)-open-FrameHeaderSize))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Update(binary.LittleEndian.Uint32(hdr[4:8]), crc32.IEEETable, buf[start:]))
	return buf, open, nil
}

// RefFrameLen is the length pass of a reference-form record framed on
// its own: the exact number of bytes AppendRefRecord appends for these
// fields into a new frame, when it accepts them. Into an open frame it
// appends FrameHeaderSize fewer.
func RefFrameLen[V ~int32](v V, g int32, sv V, preds []V) int {
	return frameLen(v, uvarintLen(g)+uvarintLen(sv), preds)
}

// NamedFrameLen is RefFrameLen for AppendNamedRecord.
func NamedFrameLen[V ~int32](v V, name string, preds []V) int {
	return frameLen(v, uvarintLen(len(name))+len(name), preds)
}

// frameLen mirrors appendRecord field by field, header included; fields
// is the length of what the kind puts between the vertex and the
// predecessors.
func frameLen[V ~int32](v V, fields int, preds []V) int {
	n := FrameHeaderSize + 1 + uvarintLen(v) + fields
	if len(preds) >= countEscape {
		n += uvarintLen(len(preds) - countEscape)
	}
	for _, p := range preds {
		n += uvarintLen(zigzag(v, p))
	}
	return n
}

// zigzag maps the signed distance v − p onto a uvarint, small either
// side of zero: a predecessor usually sits close to its vertex, but the
// client chooses ids, so it may sit above it as well as below.
func zigzag[V ~int32](v, p V) uint64 {
	d := int64(v) - int64(p)
	return uint64(d<<1) ^ uint64(d>>63)
}

// uvarintLen is the length of binary.AppendUvarint(nil, uint64(x)).
func uvarintLen[I ~int | ~int32 | ~uint64](x I) int {
	return (bits.Len64(uint64(x)|1) + 6) / 7
}

// DecodePayload decodes every record a frame payload carries (the bytes
// after a frame header, already CRC-verified by the caller), in order,
// onto dst, with their predecessors appended to *arena, a buffer the
// caller owns: each record's Preds alias it, valid until the caller
// truncates the arena (growing it moves nothing a record sees). A
// caller that is done with each batch of records before it truncates
// decodes without allocating. A payload is taken whole or not at all: on any damage — a
// record that does not decode, bytes left after the last one, a classic
// record sharing its frame — dst comes back at its old length, the
// arena as it was, and the error wraps ErrCorrupt.
func DecodePayload(dst []Record, arena *[]graph.VertexID, payload []byte) ([]Record, error) {
	dst, _, err := decodePayload(dst, arena, payload, true)
	return dst, err
}

// decodePayload is the one walk over a payload's run of records, behind
// DecodePayload and every record count the log keeps; it returns dst
// and the number of records. With keep unset the records are only
// counted: dst is left alone, a named record's name is not built, and
// each record's predecessors leave the arena again — a count allocates
// nothing once the arena holds the largest record's.
func decodePayload(dst []Record, arena *[]graph.VertexID, payload []byte, keep bool) ([]Record, int, error) {
	if len(payload) == 0 {
		return dst, 0, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	start, held := len(dst), len(*arena)
	count := 0
	for off := 0; off < len(payload); count++ {
		rec, n, err := decodeRecord(arena, payload[off:], keep)
		if err == nil && isClassic(payload[off]) && (off > 0 || n != len(payload)) {
			err = fmt.Errorf("%w: classic record at payload offset %d shares its frame", ErrCorrupt, off)
		}
		if err != nil {
			clear(dst[start:])
			*arena = (*arena)[:held]
			return dst[:start], 0, err
		}
		if keep {
			dst = append(dst, rec)
		} else {
			*arena = (*arena)[:held]
		}
		off += n
	}
	return dst, count, nil
}

func isClassic(kind byte) bool { return kind == kindRefClassic || kind == kindNamedClassic }

// decodeRecord decodes the record at the front of b, which may go on
// with further records, and returns it with its length; with names
// unset a named record comes without its name. On an error the arena
// is as it was.
func decodeRecord(arena *[]graph.VertexID, b []byte, names bool) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	kind := b[0]
	classic := isClassic(kind)
	named := kind == kindNamedClassic || kind&kindMask == kindNamed
	if !classic && !named && kind&kindMask != kindRef {
		return Record{}, 0, fmt.Errorf("%w: unknown record kind 0x%02x", ErrCorrupt, kind)
	}
	r := payloadReader{b: b, pos: 1}
	npreds := uint64(kind >> countShift)
	if npreds == countEscape {
		more, err := r.uvarint()
		if err != nil {
			return Record{}, 0, err
		}
		npreds += more
	}
	v, err := r.vertex()
	if err != nil {
		return Record{}, 0, err
	}
	var rec Record
	if named {
		n, err := r.uvarint()
		if err != nil {
			return Record{}, 0, err
		}
		if n > uint64(len(b)-r.pos) {
			return Record{}, 0, fmt.Errorf("%w: name length %d exceeds payload", ErrCorrupt, n)
		}
		rec = Record{Named: true, NamedEv: core.NamedEvent{V: v}}
		if names {
			rec.NamedEv.Name = string(b[r.pos : r.pos+int(n)])
		}
		r.pos += int(n)
	} else {
		g, err := r.id("graph")
		if err != nil {
			return Record{}, 0, err
		}
		sv, err := r.vertex()
		if err != nil {
			return Record{}, 0, err
		}
		rec.Ref = run.Event{V: v, Ref: spec.VertexRef{Graph: spec.GraphID(g), V: sv}}
	}
	if classic {
		if npreds, err = r.uvarint(); err != nil {
			return Record{}, 0, err
		}
	}
	preds, err := r.preds(arena, npreds, v, classic)
	if err != nil {
		return Record{}, 0, err
	}
	if named {
		rec.NamedEv.Preds = preds
	} else {
		rec.Ref.Preds = preds
	}
	return rec, r.pos, nil
}

// FrameReader reads a stream of frames — a log file, an ingest body, a
// shipped tail — yielding each frame raw (header plus payload) once its
// length prefix is in range and its CRC matches. It is the one place a
// frame is checked on the way in; Scan, the chain walks, Tailer and the
// internal/api wire readers are loops over it, and decodePayload is the
// one place its records are. It reads exactly the bytes of the frames
// it returns, never ahead, so a caller may interleave its own reads on
// the same stream (the tail stream's sequence prefixes), and allocates
// nothing per frame once its buffer has grown to the largest frame
// seen.
type FrameReader struct {
	r     io.Reader
	frame []byte
	off   int64
}

// NewFrameReader reads frames from r. Hand it a buffered reader: every
// frame costs two reads.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, frame: make([]byte, FrameHeaderSize, 256)}
}

// Reset points the reader at a new stream, keeping its frame buffer.
func (fr *FrameReader) Reset(r io.Reader) { fr.r, fr.off = r, 0 }

// Next returns the next frame; the slice is reused by the following
// call. A stream that ends on a frame boundary returns io.EOF. Anything
// else the stream can end in — a header or payload cut short, a length
// of zero or past MaxPayload, a CRC mismatch — wraps ErrCorrupt (a read
// error other than a short stream is returned as it is), and Offset
// then still marks the end of the last good frame. What damage means is
// the caller's policy: the tail of a crashed log, corruption below a
// committed watermark, or a bad request body.
func (fr *FrameReader) Next() ([]byte, error) {
	hdr := fr.frame[:FrameHeaderSize]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fr.damaged("header", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > MaxPayload {
		return nil, fmt.Errorf("%w: frame at byte %d declares a payload of %d bytes, outside (0, %d]", ErrCorrupt, fr.off, length, MaxPayload)
	}
	total := FrameHeaderSize + int(length)
	if cap(fr.frame) < total {
		fr.frame = append(make([]byte, 0, total), hdr...)
	}
	fr.frame = fr.frame[:total]
	payload := fr.frame[FrameHeaderSize:]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fr.damaged("payload", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fr.frame[4:8]) {
		return nil, fmt.Errorf("%w: frame at byte %d fails its CRC", ErrCorrupt, fr.off)
	}
	fr.off += int64(total)
	return fr.frame, nil
}

// damaged classifies a failed read inside a frame: the stream running
// out is damage, the source failing is the source's error.
func (fr *FrameReader) damaged(part string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: frame at byte %d: %s cut short", ErrCorrupt, fr.off, part)
	}
	return err
}

// Offset returns the number of bytes in the frames returned so far —
// the end of the stream's valid prefix.
func (fr *FrameReader) Offset() int64 { return fr.off }

// OpenFrames opens the log at path for a read-only frame walk starting
// at byte offset (a frame boundary). A missing file reads as an empty
// stream. The caller closes the returned file.
func OpenFrames(path string, offset int64) (*FrameReader, io.Closer, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		empty := io.NopCloser(strings.NewReader(""))
		return NewFrameReader(empty), empty, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return NewFrameReader(bufio.NewReaderSize(f, 256<<10)), f, nil
}

// Scan reads the log at path from the beginning, calling fn for each
// intact record in order. It stops without error at the first torn or
// corrupt frame — a crash can only damage the tail, and everything
// after a bad frame is unrecoverable by construction — and returns
// the number of records delivered plus the byte offset of the end of
// the valid prefix (the offset Open should truncate to). A frame that
// passes its CRC but does not decode whole counts as damage too, and
// fn sees none of its records. A missing file scans as empty. An error
// from fn aborts the scan and is returned as-is; validSize then ends
// at the last frame fn saw whole.
func Scan(path string, fn func(i int, rec Record) error) (n int, validSize int64, err error) {
	fr, f, err := OpenFrames(path, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var recs []Record
	var preds []graph.VertexID
	for {
		frame, err := fr.Next()
		if err != nil {
			return n, validSize, tailDamage(err)
		}
		if recs, err = DecodePayload(recs[:0], &preds, frame[FrameHeaderSize:]); err != nil {
			return n, validSize, nil
		}
		for _, rec := range recs {
			if fn != nil {
				if err := fn(n, rec); err != nil {
					return n, validSize, err
				}
			}
			n++
		}
		validSize = fr.Offset()
		preds = nil // the records fn saw keep theirs
	}
}

// recordCounter counts the records of frames with the payload walk,
// reusing its predecessor scratch from frame to frame.
type recordCounter struct{ preds []graph.VertexID }

// count returns the number of records frame carries, or the error that
// keeps its payload from decoding whole.
func (c *recordCounter) count(frame []byte) (int, error) {
	_, n, err := decodePayload(nil, &c.preds, frame[FrameHeaderSize:], false)
	return n, err
}

// tailDamage is the file walks' torn-tail policy: a log may end on a
// frame boundary or in damage, and both just end the valid prefix.
func tailDamage(err error) error {
	if err == io.EOF || errors.Is(err, ErrCorrupt) {
		return nil
	}
	return fmt.Errorf("wal: %w", err)
}

// Log is an open write-ahead log. Appends must still come from one
// goroutine at a time (the service serializes them under its
// per-session ingest lock), but Flush and Close may be called
// from other goroutines — that is what lets a group-commit leader
// (Committer) flush a session's log on the session's behalf, and
// flush many sessions' logs in parallel.
//
// Every record in the log has an absolute sequence number: the first
// record in the file is 1, a frame of k records advances it by k, and
// Open seeds the counters with the record count a prior Scan reported,
// so sequences survive restarts.
// AppendSeq and DurableSeq read the counters atomically; DurableAdvanced
// is the subscription hook a Tailer uses to switch from history replay
// to live tailing.
type Log struct {
	// mu guards the file handle, the buffered writer and the closed
	// flag. Held across the fsync too: a flush that raced an in-flight
	// append could otherwise sync a torn frame into "durable" territory.
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	path    string
	fsync   bool
	closed  bool
	count   recordCounter // AppendRaw's record walk, used under mu
	appends int64         // AppendRaw calls, for sampling; under mu

	// appendSeq is the sequence of the last appended record;
	// durableSeq is the highest appendSeq known to be flushed (by
	// Flush/Close directly, or by a Committer round).
	appendSeq  atomic.Int64
	durableSeq atomic.Int64
	closedFlag atomic.Bool

	// appendBytes is the file size after the last append — the frame
	// boundary an arena snapshot records (Meta.WALBytes). Seeded with
	// validSize at Open.
	appendBytes atomic.Int64

	// notifyMu guards notifyCh, the broadcast channel closed whenever
	// durableSeq advances or the log closes.
	notifyMu sync.Mutex
	notifyCh chan struct{}

	// Hash-chain state, guarded by mu. Appends only copy their frame
	// bytes into chainPend (a memcpy, no hashing on the hot path); the
	// chain is folded forward in one batched pass per flush round —
	// flushLocked calls advanceChainLocked before writing, so by the
	// time a Committer round acknowledges a batch the head covers it.
	// chainOn is false until the chain is seeded: a log opened over
	// pre-existing records cannot know its head until the caller has
	// hashed the prefix (see SeedChain).
	chainOn   bool
	chainSeq  int64 // sequence chainHead covers
	chainHead integrity.Head
	chainPend []byte // raw frames appended since the last fold
	chainLens []int  // frame lengths within chainPend
	chainer   *integrity.Chainer

	// metrics, when attached, counts appends and observes flush/fsync
	// latency. Guarded by mu; set once at open (SetMetrics).
	metrics *Metrics
}

// AppendSeq returns the sequence of the last record appended so far
// (counting records already in the file at Open) — the sequence to
// pass to Committer.Commit to make the log durable up to this point.
func (l *Log) AppendSeq() int64 { return l.appendSeq.Load() }

// AppendBytes returns the log's byte length after the last append
// (buffered or flushed) — always a frame boundary, and therefore the
// watermark of a snapshot taken at this point.
func (l *Log) AppendBytes() int64 { return l.appendBytes.Load() }

// DurableSeq returns the sequence of the last record known to be
// flushed (and fsynced, as the log is configured) — the committed
// prefix a crash cannot take back and the only records a Tailer will
// serve. It reads one atomic; callers no longer infer the committed
// sequence by replaying the file.
func (l *Log) DurableSeq() int64 { return l.durableSeq.Load() }

// advanceDurable raises durableSeq monotonically and wakes every
// DurableAdvanced waiter.
func (l *Log) advanceDurable(seq int64) {
	for {
		cur := l.durableSeq.Load()
		if seq <= cur {
			return
		}
		if l.durableSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	l.broadcast()
}

func (l *Log) broadcast() {
	l.notifyMu.Lock()
	if l.notifyCh != nil {
		close(l.notifyCh)
		l.notifyCh = nil
	}
	l.notifyMu.Unlock()
}

// DurableAdvanced returns a channel closed the next time the durable
// sequence advances (or the log closes). To wait without lost
// wakeups: take the channel, re-check DurableSeq (and Closed), then
// receive.
func (l *Log) DurableAdvanced() <-chan struct{} {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	if l.notifyCh == nil {
		l.notifyCh = make(chan struct{})
	}
	return l.notifyCh
}

// Closed reports whether the log has been closed.
func (l *Log) Closed() bool { return l.closedFlag.Load() }

// errClosed reports appends or flushes on a closed log.
var errClosed = errors.New("wal: log closed")

// Open opens (creating if absent) the log at path for appending and
// truncates it to validSize, discarding any corrupt tail that a prior
// Scan reported. records is the number of intact records in the valid
// prefix (what the same Scan returned); it seeds the absolute
// sequence counters, so the first record appended here gets sequence
// records+1 and tailers see one continuous numbering across restarts.
// fsync selects whether Flush also forces the data to stable storage.
func Open(path string, validSize int64, records int64, fsync bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate corrupt tail: %w", err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	// The count's arena starts at a size few records outgrow, so a
	// log's appends settle into allocating nothing at once.
	l := &Log{f: f, w: bufio.NewWriter(f), path: path, fsync: fsync, count: recordCounter{preds: make([]graph.VertexID, 0, 64)}}
	l.appendSeq.Store(records)
	l.durableSeq.Store(records)
	l.appendBytes.Store(validSize)
	// An empty log starts its hash chain at genesis; a log reopened
	// over existing records stays chainless until SeedChain installs
	// the head of the prefix (restore hashes the prefix as it replays
	// it; only the auditor uses ChainScan).
	l.chainOn = records == 0
	l.chainSeq = records
	return l, nil
}

// SeedChain installs head as the hash-chain head covering every record
// already appended (AppendSeq at the time of the call) and enables
// chain tracking from there on. Restore calls it after hashing the
// log's valid prefix; it must not race appends.
func (l *Log) SeedChain(head integrity.Head) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.chainOn = true
	l.chainSeq = l.appendSeq.Load()
	l.chainHead = head
	l.chainPend, l.chainLens = l.chainPend[:0], l.chainLens[:0]
}

// DisableChain turns hash-chain tracking off (ChainHead then reports
// unavailable). It exists for benchmarking the chain's cost and for
// callers that knowingly run without integrity metadata.
func (l *Log) DisableChain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.chainOn = false
	l.chainPend, l.chainLens = l.chainPend[:0], l.chainLens[:0]
}

// ChainHead folds any pending appends into the hash chain and returns
// the head plus the sequence it covers (every record appended so far).
// ok is false when the log has no chain — tracking disabled, or a
// reopened log that was never seeded.
func (l *Log) ChainHead() (seq int64, head integrity.Head, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.chainOn {
		return 0, integrity.Head{}, false
	}
	l.advanceChainLocked()
	return l.chainSeq, l.chainHead, true
}

// advanceChainLocked is the batched hash pass: it folds every frame
// appended since the previous pass into the chain head. Called under
// mu from flushLocked (once per group-commit round) and ChainHead.
func (l *Log) advanceChainLocked() {
	if !l.chainOn || len(l.chainLens) == 0 {
		return
	}
	if l.chainer == nil {
		l.chainer = integrity.NewChainer()
	}
	off := 0
	for _, n := range l.chainLens {
		l.chainHead = l.chainer.Extend(l.chainHead, l.chainPend[off:off+n])
		off += n
	}
	// Everything appended is folded now, and appends hold mu.
	l.chainSeq = l.appendSeq.Load()
	if l.metrics != nil {
		l.metrics.ChainedFrames.Add(int64(len(l.chainLens)))
	}
	l.chainPend = l.chainPend[:0]
	l.chainLens = l.chainLens[:0]
}

// AppendRaw buffers one frame — header plus a payload of one or more
// records, as AppendRecord builds it. The frame's structure is
// validated: its length prefix consistent with the slice and within
// MaxPayload, its payload a run of records that decodes whole, whose
// count advances the sequence. Its CRC is not recomputed — the caller
// must have verified it when the frame was received, or built the frame
// itself, because a corrupt frame written here would silently truncate
// recovery at this point. The records are not durable — and must not
// be acknowledged — until the next Flush.
func (l *Log) AppendRaw(frame []byte) error {
	if len(frame) < FrameHeaderSize {
		return fmt.Errorf("wal: raw frame of %d bytes is shorter than the %d-byte header", len(frame), FrameHeaderSize)
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	if length == 0 || length > MaxPayload || int(length) != len(frame)-FrameHeaderSize {
		return fmt.Errorf("wal: raw frame header declares %d payload bytes, frame carries %d", length, len(frame)-FrameHeaderSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	// Sampled append timing: one in appendSampleEvery appends pays the
	// two clock reads, keeping the distribution representative without
	// taxing saturated ingest.
	l.appends++
	var t0 time.Time
	sample := l.metrics != nil && l.appends%appendSampleEvery == 0
	if sample {
		t0 = time.Now()
	}
	records, err := l.count.count(frame)
	if err != nil {
		return fmt.Errorf("wal: raw frame: %w", err)
	}
	if _, err := l.w.Write(frame); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.chainOn {
		l.chainPend = append(l.chainPend, frame...)
		l.chainLens = append(l.chainLens, len(frame))
	}
	l.appendSeq.Add(int64(records))
	l.appendBytes.Add(int64(len(frame)))
	if l.metrics != nil {
		l.metrics.Appends.Add(int64(records))
		l.metrics.AppendedBytes.Add(int64(len(frame)))
		if sample {
			l.metrics.AppendLatency.Add(time.Since(t0))
		}
	}
	return nil
}

// Flush writes buffered records to the file, fsyncing as configured at
// Open. An acknowledged batch must be flushed first — either directly,
// or through a Committer that amortizes the flush over concurrent
// batches.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if l.closed {
		return errClosed
	}
	start := time.Time{}
	if l.metrics != nil {
		start = time.Now()
	}
	// One batched hash pass per flush round: the frames of every
	// batch acknowledged by this round enter the chain here, not on
	// the ingest path.
	l.advanceChainLocked()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var fsyncDur time.Duration
	if l.fsync {
		t0 := start
		if l.metrics != nil {
			t0 = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if l.metrics != nil {
			fsyncDur = time.Since(t0)
		}
	}
	if l.metrics != nil {
		l.metrics.observeFlush(time.Since(start), fsyncDur, l.fsync)
	}
	// Appends hold mu, so everything counted by appendSeq is in the
	// file now; publish it to DurableSeq readers and wake tailers.
	l.advanceDurable(l.appendSeq.Load())
	return nil
}

// Close flushes and closes the log. Later appends, flushes and commits
// fail; waiting tailers are woken and see the log closed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	flushErr := l.flushLocked()
	l.closed = true
	l.closedFlag.Store(true)
	l.broadcast()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return flushErr
}
