package service

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
)

// TestArenaRestoreDeferredLabeler covers the graceful-shutdown fast
// path: Close writes a final arena snapshot, so the next restore is a
// pure mmap — the store serves the mapped labels, the labeler replay
// is deferred, and the first ingest settles it transparently.
func TestArenaRestoreDeferredLabeler(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 300, 21)
	cut := len(events) / 2

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create("lazy", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:cut], 41)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// The final snapshot must be an arena covering the whole log.
	a, err := arena.Open(filepath.Join(dir, "lazy", snapFile))
	if err != nil {
		t.Fatalf("Close did not leave an arena snapshot: %v", err)
	}
	if a.Events() != int64(cut) || a.Count() != cut {
		t.Fatalf("final snapshot covers %d events / %d labels, want %d", a.Events(), a.Count(), cut)
	}
	a.Close()

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("lazy")
	s2.ingestMu.Lock()
	deferred := s2.needLabelerReplay
	s2.ingestMu.Unlock()
	if !deferred {
		t.Fatal("tail-empty arena restore should defer the labeler replay")
	}
	if got := s2.Stats().ArenaVertices; got != int64(cut) {
		t.Fatalf("ArenaVertices = %d, want %d", got, cut)
	}
	// Queries work without ever touching the labeler.
	checkOracle(t, s2, events, r, cut)

	// The first ingest rebuilds the labeler and continues seamlessly.
	appendAll(t, s2, events[cut:], 41)
	s2.ingestMu.Lock()
	deferred = s2.needLabelerReplay
	s2.ingestMu.Unlock()
	if deferred {
		t.Fatal("ingest did not settle the deferred labeler replay")
	}
	checkOracle(t, s2, events, r, len(events))
	reg2.Close()
}

// TestArenaRestoreWithTail covers the crash case: an arena snapshot
// mid-stream plus committed WAL records past its watermark. Restore
// must adopt the arena for the covered prefix and replay only what the
// log holds beyond it.
func TestArenaRestoreWithTail(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 300, 9)
	cut := len(events) / 2

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("tail", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:cut-40], 37)
	s.snapWG.Wait() // let the periodic snapshot land
	// Disable snapshotting and append more, so the log provably holds
	// records past the snapshot watermark.
	s.ingestMu.Lock()
	s.snapEvery = -1
	s.ingestMu.Unlock()
	appendAll(t, s, events[cut-40:cut], 37)
	// No Close: the WAL holds records past the snapshot watermark.

	a, err := arena.Open(filepath.Join(dir, "tail", snapFile))
	if err != nil {
		t.Fatalf("no arena snapshot: %v", err)
	}
	snapped := a.Events()
	a.Close()
	if snapped <= 0 || snapped >= int64(cut) {
		t.Fatalf("want a snapshot strictly inside the stream, got %d of %d", snapped, cut)
	}

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("tail")
	if got := s2.Stats().ArenaVertices; got != snapped {
		t.Fatalf("ArenaVertices = %d, want the snapshot's %d", got, snapped)
	}
	s2.ingestMu.Lock()
	deferred := s2.needLabelerReplay
	s2.ingestMu.Unlock()
	if deferred {
		t.Fatal("a non-empty tail must replay the labeler eagerly")
	}
	checkOracle(t, s2, events, r, cut)
	appendAll(t, s2, events[cut:], 37)
	checkOracle(t, s2, events, r, len(events))
	reg2.Close()
}

// TestArenaRestoreEquivalentToV1 restores the same data directory from
// its arena snapshot and, with labels.snap deleted, from the log alone,
// and requires the two restores to be indistinguishable: every label
// byte for byte, the chain head the reopened log continues from, the
// stats that describe the labeling (not the in-memory representation),
// every reachability and lineage answer, and byte-identical
// re-snapshots. A snapshot is a cache of the log; this is the test that
// it caches nothing the log would not re-issue. (The "V1" of the name
// was the first durable format's restore — replay everything — which
// is what a restore without a snapshot still is.)
func TestArenaRestoreEquivalentToV1(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, _ := genEvents(t, g, 400, 13)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create("eq", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 64)
	walEvents := s.walEvents
	if err := reg.Close(); err != nil { // leaves the arena snapshot
		t.Fatal(err)
	}

	fromArena := durableReg(t, t.TempDir(), DurableOptions{})
	if _, err := fromArena.Restore(dir); err != nil {
		t.Fatal(err)
	}
	sa, _ := fromArena.Get("eq")
	if sa.Stats().ArenaVertices == 0 {
		t.Fatal("restore did not adopt the arena")
	}
	seqA, headA, _ := sa.ChainState()
	if err := fromArena.Close(); err != nil { // release the log before the next restore reopens it
		t.Fatal(err)
	}

	if err := os.Remove(filepath.Join(dir, "eq", snapFile)); err != nil {
		t.Fatal(err)
	}
	fromLog := durableReg(t, t.TempDir(), DurableOptions{})
	if _, err := fromLog.Restore(dir); err != nil {
		t.Fatal(err)
	}
	defer fromLog.Close()
	sl, _ := fromLog.Get("eq")
	if sl.Stats().ArenaVertices != 0 {
		t.Fatal("a restore without labels.snap reports arena labels")
	}

	if seqL, headL, ok := sl.ChainState(); !ok || seqL != seqA || headL != headA || seqL != walEvents {
		t.Fatalf("chain state diverges: arena (%d, %s), log alone (%d, %s, %v), %d events logged", seqA, headA, seqL, headL, ok, walEvents)
	}
	ba, bl := storeBytes(sa), storeBytes(sl)
	if len(ba) != len(events) || len(bl) != len(events) {
		t.Fatalf("store sizes: arena %d, log alone %d, events %d", len(ba), len(bl), len(events))
	}
	for v, enc := range ba {
		if !bytes.Equal(enc, bl[v]) {
			t.Fatalf("vertex %d: arena bytes %x, replayed bytes %x", v, enc, bl[v])
		}
	}

	// Semantic stats fields agree (publish epochs are representation
	// counters and legitimately differ).
	st1, st2 := sl.Stats(), sa.Stats()
	if st1.Name != st2.Name || st1.Class != st2.Class || st1.Skeleton != st2.Skeleton ||
		st1.Mode != st2.Mode || st1.Vertices != st2.Vertices ||
		st1.LabelBits != st2.LabelBits || st1.SkeletonBits != st2.SkeletonBits ||
		st1.Durable != st2.Durable {
		t.Fatalf("stats diverge:\nlog alone: %+v\narena:     %+v", st1, st2)
	}

	// Every query answer agrees.
	for i := 0; i < len(events); i += 7 {
		for j := 0; j < len(events); j += 11 {
			v, w := events[i].V, events[j].V
			r1, err1 := sl.Reach(v, w)
			r2, err2 := sa.Reach(v, w)
			if (err1 == nil) != (err2 == nil) || r1 != r2 {
				t.Fatalf("reach(%d,%d): log alone=%v,%v arena=%v,%v", v, w, r1, err1, r2, err2)
			}
		}
		l1, err1 := sl.Lineage(events[i].V)
		l2, err2 := sa.Lineage(events[i].V)
		if (err1 == nil) != (err2 == nil) || !slices.Equal(l1, l2) {
			t.Fatalf("lineage(%d) diverges", events[i].V)
		}
	}

	// Re-snapshotting both restored stores produces identical files.
	p1 := filepath.Join(t.TempDir(), "re1.snap")
	p2 := filepath.Join(t.TempDir(), "re2.snap")
	if _, err := writeArenaSnapshot(p1, walEvents, 0, sl.store.SnapshotEntries(), headA); err != nil {
		t.Fatal(err)
	}
	if _, err := writeArenaSnapshot(p2, walEvents, 0, sa.store.SnapshotEntries(), headA); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sa) // the entries alias its snapshot mapping
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-snapshots of the two restored stores differ")
	}
}

// TestArenaAheadOfLogDiscarded simulates an OS crash with Fsync off:
// the snapshot claims WAL bytes the durable log never got. The arena
// must be discarded and recovery must fall back to what the log alone
// can prove.
func TestArenaAheadOfLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, r := genEvents(t, g, 200, 17)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create("ahead", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 50)
	reg.Close()

	// Truncate the log below the snapshot's watermark.
	walPath := filepath.Join(dir, "ahead", walFile)
	a, err := arena.Open(filepath.Join(dir, "ahead", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	wb := a.WALBytes()
	a.Close()
	if err := os.Truncate(walPath, wb-1); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("ahead")
	if got := s2.Stats().ArenaVertices; got != 0 {
		t.Fatalf("a snapshot ahead of the log must be discarded, ArenaVertices = %d", got)
	}
	// The replayable prefix still answers correctly.
	n := int(s2.Vertices())
	if n == 0 || n >= len(events) {
		t.Fatalf("restored %d vertices, want a strict prefix of %d", n, len(events))
	}
	checkOracle(t, s2, events, r, n)
	reg2.Close()
}

// TestArenaRestoreCorruptFallsBack flips a byte in the arena index and
// requires restore to fall back to full log replay.
func TestArenaRestoreCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, r := genEvents(t, g, 150, 29)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create("rot", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 50)
	reg.Close()

	snapPath := filepath.Join(dir, "rot", snapFile)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[52] ^= 0x01 // inside the index
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("rot")
	if s2.Stats().ArenaVertices != 0 {
		t.Fatal("corrupt arena was adopted")
	}
	checkOracle(t, s2, events, r, len(events))
	reg2.Close()
}

// TestGoldenV1Restore restores the committed v1-format fixture — a
// data directory written by the pre-arena code — and checks its
// queries against expected answers baked into the fixture. This is the
// compatibility contract: old data directories keep restoring on every
// future build. Nothing reads the fixture's WFSNAP01 labels.snap any
// more; it is ignored and the labels are re-issued from the log.
func TestGoldenV1Restore(t *testing.T) {
	dir := filepath.Join("testdata", "golden-v1")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	reg := NewRegistry()
	restored, err := reg.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "golden" {
		t.Fatalf("restored %v, want [golden]", restored)
	}
	s, _ := reg.Get("golden")

	// The expectations file holds one binary record per line-less
	// entry: vertex pairs with their reachability verdict.
	raw, err := os.ReadFile(filepath.Join(dir, "expect.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw)%9 != 0 {
		t.Fatalf("expect.bin has %d bytes, not a multiple of 9", len(raw))
	}
	checked := 0
	for off := 0; off+9 <= len(raw); off += 9 {
		v := graph.VertexID(binary.LittleEndian.Uint32(raw[off:]))
		w := graph.VertexID(binary.LittleEndian.Uint32(raw[off+4:]))
		want := raw[off+8] == 1
		got, err := s.Reach(v, w)
		if err != nil {
			t.Fatalf("reach(%d,%d): %v", v, w, err)
		}
		if got != want {
			t.Fatalf("reach(%d,%d) = %v, fixture says %v", v, w, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("fixture carries no expectations")
	}
}

// TestConcurrentArenaQueriesDuringIngest exercises the aliasing
// contract under the race detector: readers query an arena-backed
// session (mapped bytes) while a writer ingests the tail and snapshots
// rewrite the file underneath the mapping.
func TestConcurrentArenaQueriesDuringIngest(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 400, 31)
	cut := len(events) / 2

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create("race", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:cut], 64)
	reg.Close()

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: 32})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("race")
	if s2.Stats().ArenaVertices == 0 {
		t.Fatal("restore did not adopt the arena")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := events[(i*7+seed)%cut].V
				w := events[(i*13+seed)%cut].V
				if _, err := s2.Reach(v, w); err != nil {
					t.Errorf("reach: %v", err)
					return
				}
				if i%50 == 0 {
					if _, err := s2.Lineage(v); err != nil {
						t.Errorf("lineage: %v", err)
						return
					}
					s2.Stats()
				}
			}
		}(r)
	}
	// Ingest the tail with a tiny snapshot cadence, so live snapshots
	// rewrite labels.snap while readers serve the old mapping.
	appendAll(t, s2, events[cut:], 16)
	close(stop)
	wg.Wait()
	if int(s2.Vertices()) != len(events) {
		t.Fatalf("vertices = %d, want %d", s2.Vertices(), len(events))
	}
	reg2.Close()
}

// TestRestoreUnmapsArenaOnLateError: a restore that adopts the arena and
// then fails — here the log cannot be reopened for appending — must not
// leave the snapshot mapped; nothing else would ever unmap it.
func TestRestoreUnmapsArenaOnLateError(t *testing.T) {
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{})
	if _, err := reg.Create("leak", compileBuiltin(t, "RunningExample"), Config{}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	// An empty session with an empty snapshot, and a log that reads as
	// absent (so the snapshot is consistent with it) but cannot be
	// created: a dangling link into a directory that does not exist.
	snapPath := filepath.Join(dir, "leak", snapFile)
	if _, err := arena.Write(snapPath, arena.Meta{HasChain: true}, nil); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "leak", walFile)
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "no-such-dir", "events.wal"), walPath); err != nil {
		t.Fatal(err)
	}
	mappings := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps to inspect: %v", err)
		}
		return bytes.Count(maps, []byte(snapPath))
	}
	a, err := arena.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if mappings() != 1 {
		t.Skip("arena snapshots are not memory-mapped on this platform")
	}
	a.Close()

	if _, err := durableReg(t, dir, DurableOptions{}).Restore(dir); err == nil {
		t.Fatal("restore reopened a log that cannot be created")
	}
	if n := mappings(); n != 0 {
		t.Fatalf("the failed restore left the snapshot mapped (%d mappings)", n)
	}
}
