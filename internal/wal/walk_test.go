package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/run"
)

// chainWalk adds every frame of a walk of the log at path from byte
// offset to chain (a fresh one when nil), as restore and the auditor do,
// and returns the head, the records the frames carry and the end of the
// valid prefix.
func chainWalk(t *testing.T, path string, offset int64, chain *integrity.Chainer) (integrity.Head, int64, int64) {
	t.Helper()
	w := OpenWalk(path, offset)
	defer w.Close()
	if chain == nil {
		chain = integrity.NewChainer()
	}
	for w.Next() {
		chain.Add(w.Frame()[FrameHeaderSize:])
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return chain.Head(), w.Seq(), w.End()
}

// checkAnchor walks the log at path from genesis until it reaches or
// passes the anchor's watermark or ends, and checks the anchor there.
func checkAnchor(t *testing.T, path string, a Anchor) error {
	t.Helper()
	w := OpenWalk(path, 0)
	defer w.Close()
	chain := integrity.NewChainer()
	for w.End() < a.Watermark && w.Next() {
		chain.Add(w.Frame()[FrameHeaderSize:])
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return a.Check(w.Seq(), w.End(), chain.Head())
}

// chainFixture appends n records to a fresh log, flushing in uneven
// batches as group-commit rounds would, and returns the path and the
// live log.
func chainFixture(t *testing.T, n int) (string, *Log) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ev := run.Event{V: graph.VertexID(i), Preds: []graph.VertexID{graph.VertexID(i / 2)}}
		if err := logRecord(l, RefRecord(ev)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	return path, l
}

// TestChainHeadMatchesFileScan pins the live in-memory chain to the
// file-level definition: hashing the on-disk frames from genesis must
// land on exactly the head the live log reports.
func TestChainHeadMatchesFileScan(t *testing.T) {
	path, l := chainFixture(t, 53)
	seq, head, ok := l.ChainHead()
	if !ok || seq != 53 {
		t.Fatalf("ChainHead = (%d, _, %v), want (53, _, true)", seq, ok)
	}
	fileHead, n, validSize := chainWalk(t, path, 0, nil)
	if n != 53 || fileHead != head {
		t.Fatalf("file scan (%d records, %s) disagrees with live head (%d, %s)", n, fileHead, seq, head)
	}
	if err := checkAnchor(t, path, Anchor{Records: 53, Watermark: validSize, Head: head}); err != nil {
		t.Fatalf("the live head as an anchor at the log's end: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChainHeadPendingFold: ChainHead on demand must cover appended but
// not yet flushed frames, since callers read it at arbitrary moments
// (snapshot capture happens before the next flush).
func TestChainHeadPendingFold(t *testing.T) {
	path, l := chainFixture(t, 10)
	// Append without flushing; the frame sits in the write buffer.
	if err := logRecord(l, RefRecord(run.Event{V: 10})); err != nil {
		t.Fatal(err)
	}
	seq, head, ok := l.ChainHead()
	if !ok || seq != 11 {
		t.Fatalf("ChainHead = (%d, _, %v) with a pending frame", seq, ok)
	}
	if err := l.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}
	if fileHead, _, _ := chainWalk(t, path, 0, nil); fileHead != head {
		t.Fatalf("pending fold head %s, file says %s", head, fileHead)
	}
}

// TestChainSeedAcrossReopen is the restart story: a reopened log has no
// chain until seeded, and seeding with the chain a walk recomputed
// continues it exactly as if the process never died.
func TestChainSeedAcrossReopen(t *testing.T) {
	path, l := chainFixture(t, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seed, prefix := integrity.NewChainer(), integrity.NewChainer()
	_, _, validSize := chainWalk(t, path, 0, seed)
	chainWalk(t, path, 0, prefix)

	l2, err := Open(path, validSize, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l2.ChainHead(); ok {
		t.Fatal("a reopened log must not have a chain before SeedChain")
	}
	l2.SeedChain(seed)
	if err := logRecord(l2, RefRecord(run.Event{V: 20})); err != nil {
		t.Fatal(err)
	}
	liveSeq, liveHead, ok := l2.ChainHead()
	if !ok || liveSeq != 21 {
		t.Fatalf("seeded ChainHead = (%d, _, %v)", liveSeq, ok)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// One continuous hash over both generations agrees with the seeded
	// continuation: scanning the tail on from the prefix's chain lands
	// on the same head as scanning the whole file from genesis.
	fullHead, n, _ := chainWalk(t, path, 0, nil)
	if n != 21 {
		t.Fatalf("walk after reopen: n=%d", n)
	}
	if fullHead != liveHead {
		t.Fatalf("live seeded head %s, full-file scan %s", liveHead, fullHead)
	}
	if contHead, n2, _ := chainWalk(t, path, validSize, prefix); n2 != 1 || contHead != fullHead {
		t.Fatalf("seeded continuation %s over %d records, full scan %s", contHead, n2, fullHead)
	}
}

// TestDisableChain: a disabled chain reports !ok and stops accumulating.
func TestDisableChain(t *testing.T) {
	_, l := chainFixture(t, 5)
	l.DisableChain()
	if err := logRecord(l, RefRecord(run.Event{V: 5})); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l.ChainHead(); ok {
		t.Fatal("ChainHead ok after DisableChain")
	}
	l.Close()
}

// TestAnchorCheck is the one anchor check's table on a log of 12
// one-record frames anchored after 8: it matches only where a frame
// ends at the watermark with the anchored records and head below it; a
// log cut below the watermark ends before it; a watermark inside a frame
// — every byte of the prefix must be whole frames landing exactly on it
// — a record count or a head the log does not have is rewritten history.
func TestAnchorCheck(t *testing.T) {
	path, l := chainFixture(t, 8)
	_, at8, _ := l.ChainHead()
	watermark := l.AppendBytes()
	for i := 8; i < 12; i++ {
		if err := logRecord(l, RefRecord(run.Event{V: graph.VertexID(i)})); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.wal")
	if err := os.WriteFile(cut, raw[:FrameHeaderSize+binary.LittleEndian.Uint32(raw)], 0o644); err != nil { // the first frame alone
		t.Fatal(err)
	}
	good := Anchor{Records: 8, Watermark: watermark, Head: at8}
	for _, tc := range []struct {
		name   string
		path   string
		anchor Anchor
		want   error
	}{
		{"the log matches at the watermark", path, good, nil},
		{"a log cut on a frame boundary below it", cut, good, ErrBeforeWatermark},
		{"a watermark inside a frame", path, Anchor{Records: 0, Watermark: 3, Head: integrity.Head{}}, ErrRewritten},
		{"one record fewer", path, Anchor{Records: 7, Watermark: watermark, Head: at8}, ErrRewritten},
		{"one record more", path, Anchor{Records: 9, Watermark: watermark, Head: at8}, ErrRewritten},
		{"another head", path, Anchor{Records: 8, Watermark: watermark, Head: integrity.Head{1}}, ErrRewritten},
	} {
		if err := checkAnchor(t, tc.path, tc.anchor); !errors.Is(err, tc.want) || (err == nil) != (tc.want == nil) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestChainCatchesCRCFixedRewrite is the reason the chain exists: a
// flipped payload byte whose frame CRC was recomputed passes every
// structural check, and only the chain tells the histories apart.
func TestChainCatchesCRCFixedRewrite(t *testing.T) {
	path, l := chainFixture(t, 30)
	_, origHead, _ := l.ChainHead()
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in record 12's payload and fix its CRC.
	off := int64(0)
	for i := 0; i < 12; i++ {
		off += int64(FrameHeaderSize) + int64(binary.LittleEndian.Uint32(raw[off:]))
	}
	plen := binary.LittleEndian.Uint32(raw[off:])
	payload := raw[off+FrameHeaderSize : off+FrameHeaderSize+int64(plen)]
	payload[len(payload)-1] ^= 0x01
	binary.LittleEndian.PutUint32(raw[off+4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Structure is pristine…
	n, _, err := Scan(path, func(int, Record) error { return nil })
	if err != nil || n != 30 {
		t.Fatalf("Scan after CRC-fixed rewrite: n=%d err=%v (the tamper must be structurally invisible)", n, err)
	}
	// …but the chain is not.
	if head, _, _ := chainWalk(t, path, 0, nil); head == origHead {
		t.Fatal("chain head unchanged by a rewritten record")
	}
}

// TestWalkReportsReadErrors: a log that cannot be read is not a torn
// tail — the walk ends before its first frame and says why, and so does
// Scan — while a missing log walks as empty with no error.
func TestWalkReportsReadErrors(t *testing.T) {
	dir := t.TempDir() // a directory opens, but a read of it fails
	w := OpenWalk(dir, 0)
	defer w.Close()
	if w.Next() || w.Err() == nil || w.Seq() != 0 || w.End() != 0 {
		t.Fatalf("walk of a directory: err %v, %d records to byte %d", w.Err(), w.Seq(), w.End())
	}
	if _, _, err := Scan(dir, nil); err == nil {
		t.Fatal("Scan of a directory reported no error")
	}
	missing := OpenWalk(filepath.Join(dir, "nope.wal"), 0)
	defer missing.Close()
	if missing.Next() || missing.Err() != nil {
		t.Fatalf("walk of a missing log: err %v", missing.Err())
	}
}
