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

// chainFixture appends n records to a fresh log, flushing in uneven
// batches so the batched chain pass runs over group-commit-shaped
// pending runs, and returns the path and the live log.
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

// TestChainHeadMatchesFileScan pins the batched in-memory chain to the
// file-level definition: hashing the on-disk frames from genesis must
// land on exactly the head the live log reports.
func TestChainHeadMatchesFileScan(t *testing.T) {
	path, l := chainFixture(t, 53)
	seq, head, ok := l.ChainHead()
	if !ok || seq != 53 {
		t.Fatalf("ChainHead = (%d, _, %v), want (53, _, true)", seq, ok)
	}
	fileHead, n, validSize, err := ChainScan(path, 0, integrity.Head{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 53 || fileHead != head {
		t.Fatalf("file scan (%d records, %s) disagrees with live head (%d, %s)", n, fileHead, seq, head)
	}
	toHead, n2, err := ChainTo(path, 0, validSize, integrity.Head{})
	if err != nil || n2 != 53 || toHead != head {
		t.Fatalf("ChainTo = (%s, %d, %v)", toHead, n2, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChainHeadPendingFold: ChainHead on demand must fold appended but
// not yet flushed frames, since callers read it at arbitrary moments
// (snapshot capture happens before the next flush).
func TestChainHeadPendingFold(t *testing.T) {
	path, l := chainFixture(t, 10)
	// Append without flushing; the frames sit in the pending run.
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
	fileHead, _, _, err := ChainScan(path, 0, integrity.Head{})
	if err != nil || fileHead != head {
		t.Fatalf("pending fold head %s, file says %s (%v)", head, fileHead, err)
	}
}

// TestChainSeedAcrossReopen is the restart story: a reopened log has no
// chain until seeded, and seeding with the recomputed head continues
// the chain exactly as if the process never died.
func TestChainSeedAcrossReopen(t *testing.T) {
	path, l := chainFixture(t, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	head, _, validSize, err := ChainScan(path, 0, integrity.Head{})
	if err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, validSize, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l2.ChainHead(); ok {
		t.Fatal("a reopened log must not have a chain before SeedChain")
	}
	l2.SeedChain(head)
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
	// continuation: scanning the tail from the seed lands on the same
	// head as scanning the whole file from genesis.
	fullHead, n, _, err := ChainScan(path, 0, integrity.Head{})
	if err != nil || n != 21 {
		t.Fatalf("ChainScan after reopen: n=%d err=%v", n, err)
	}
	if fullHead != liveHead {
		t.Fatalf("live seeded head %s, full-file scan %s", liveHead, fullHead)
	}
	contHead, n2, _, err := ChainScan(path, validSize, head)
	if err != nil || n2 != 1 || contHead != fullHead {
		t.Fatalf("seeded continuation %s over %d records, full scan %s (%v)", contHead, n2, fullHead, err)
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

// TestChainToRejectsMisalignedBoundary: every byte of [0, to) must be
// intact frames landing exactly on to — a watermark that points inside
// a frame is corruption, not a rounding error.
func TestChainToRejectsMisalignedBoundary(t *testing.T) {
	path, l := chainFixture(t, 8)
	l.Close()
	if _, _, err := ChainTo(path, 0, 3, integrity.Head{}); err == nil {
		t.Fatal("ChainTo accepted a boundary inside a frame")
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
	head, _, _, err := ChainScan(path, 0, integrity.Head{})
	if err != nil {
		t.Fatal(err)
	}
	if head == origHead {
		t.Fatal("chain head unchanged by a rewritten record")
	}
}

// TestChainPrefix: the head over a log's first n frames is the head the
// live log reported at sequence n, whatever follows, and a log shorter
// than n frames is corrupt.
func TestChainPrefix(t *testing.T) {
	path, l := chainFixture(t, 20)
	_, at20, _ := l.ChainHead()
	for i := 20; i < 30; i++ {
		if err := logRecord(l, RefRecord(run.Event{V: graph.VertexID(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if head, err := ChainPrefix(path, 20); err != nil || head != at20 {
		t.Fatalf("ChainPrefix(20) = (%s, %v), live head at 20 was %s", head, err, at20)
	}
	if head, err := ChainPrefix(path, 0); err != nil || head != (integrity.Head{}) {
		t.Fatalf("ChainPrefix(0) = (%s, %v), want genesis", head, err)
	}
	if _, err := ChainPrefix(path, 31); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ChainPrefix past the end = %v, want ErrCorrupt", err)
	}
}
