package service

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// durableReg opens a registry over dir, closed when the test ends
// (closing again is harmless).
func durableReg(t testing.TB, dir string, opts DurableOptions) *Registry {
	t.Helper()
	opts.Dir = dir
	reg, err := NewDurableRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

func genEvents(t *testing.T, g *spec.Grammar, size int, seed int64) ([]run.Event, *run.Run) {
	t.Helper()
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return events, r
}

func appendAll(t *testing.T, s *Session, events []run.Event, batch int) {
	t.Helper()
	for lo := 0; lo < len(events); lo += batch {
		hi := min(lo+batch, len(events))
		if n, err := s.Append(events[lo:hi]); err != nil {
			t.Fatalf("append [%d,%d): applied %d: %v", lo, hi, n, err)
		}
	}
}

// appendFramed is appendAll through AppendRecords without frames, as
// the wire routes ingest: each batch goes to the log as one frame.
func appendFramed(t *testing.T, s *Session, events []run.Event, batch int) {
	t.Helper()
	for lo := 0; lo < len(events); lo += batch {
		hi := min(lo+batch, len(events))
		recs := make([]wal.Record, 0, hi-lo)
		for _, ev := range events[lo:hi] {
			recs = append(recs, wal.RefRecord(ev))
		}
		if n, err := s.AppendRecords(recs, nil); err != nil {
			t.Fatalf("append [%d,%d): applied %d: %v", lo, hi, n, err)
		}
	}
}

// checkOracle verifies every pair over the first n events of the
// stream against BFS ground truth on the fully generated run (labels
// never change, so the partial answers must equal the final ones).
func checkOracle(t *testing.T, s *Session, events []run.Event, r *run.Run, n int) {
	t.Helper()
	if got := s.Vertices(); got != int64(n) {
		t.Fatalf("session has %d vertices, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v, w := events[i].V, events[j].V
			got, err := s.Reach(v, w)
			if err != nil {
				t.Fatalf("reach(%d,%d): %v", v, w, err)
			}
			if want := r.Reaches(v, w); got != want {
				t.Fatalf("reach(%d,%d)=%v, want %v", v, w, got, want)
			}
		}
	}
}

// TestDurableRestoreMatchesOracle ingests a run into a durable
// session, drops the registry without a clean shutdown (the crash
// case: the WAL is flushed per batch, nothing else is saved), restores
// into a fresh registry and checks every reachability answer against
// the BFS oracle. It then continues ingesting the rest of the stream
// on the restored session and checks again — recovery must leave the
// labeler in a state indistinguishable from an uninterrupted run.
func TestDurableRestoreMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 300, 7)
	cut := len(events) / 2

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("crashy", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:cut], 37)
	// No reg.Close(): simulate the process dying after the last ack.

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	restored, err := reg2.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "crashy" {
		t.Fatalf("restored %v", restored)
	}
	s2, ok := reg2.Get("crashy")
	if !ok {
		t.Fatal("restored session not registered")
	}
	if _, err := s2.Integrity(); err != nil {
		t.Fatalf("restored session has no open log: %v", err)
	}
	checkOracle(t, s2, events, r, cut)

	// The restored session keeps ingesting where the log ended.
	appendAll(t, s2, events[cut:], 37)
	checkOracle(t, s2, events, r, len(events))
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}

	// And a third process can restore the completed run.
	reg3 := durableReg(t, dir, DurableOptions{})
	if _, err := reg3.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s3, _ := reg3.Get("crashy")
	checkOracle(t, s3, events, r, len(events))
}

// TestDurableNamedEvents round-trips the name-identified event form
// through the WAL.
func TestDurableNamedEvents(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 150, 3)

	reg := durableReg(t, dir, DurableOptions{})
	s, err := reg.Create("named", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	named := make([]core.NamedEvent, len(events))
	for i, ev := range events {
		named[i] = toNamed(r, ev)
	}
	for lo := 0; lo < len(named); lo += 16 {
		hi := min(lo+16, len(named))
		if _, err := s.AppendNamed(named[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	reg.Close()

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("named")
	checkOracle(t, s2, events, r, len(events))
}

// storeBytes snapshots a session's encoded labels for comparison.
func storeBytes(s *Session) map[int32][]byte {
	out := make(map[int32][]byte)
	for _, e := range s.store.SnapshotEntries() {
		// A copy: the slab's own bytes may lie in a snapshot mapping,
		// which is only there while the session is reachable.
		out[int32(e.V)] = bytes.Clone(e.Enc)
	}
	runtime.KeepAlive(s)
	return out
}

// TestSnapshotTailEqualsFullReplay restores the same data directory
// twice — once with the snapshot present (snapshot + WAL tail) and
// once with it deleted (full WAL replay) — and requires byte-identical
// stores: the snapshot path must never change what recovery produces,
// and the persisted bytes must equal what re-encoding produces.
func TestSnapshotTailEqualsFullReplay(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, _ := genEvents(t, g, 400, 11)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 100})
	s, err := reg.Create("snap", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 64)
	reg.Close()
	if _, err := os.Stat(filepath.Join(dir, "snap", snapFile)); err != nil {
		t.Fatalf("no snapshot was written: %v", err)
	}

	withSnap := durableReg(t, dir, DurableOptions{})
	if _, err := withSnap.Restore(dir); err != nil {
		t.Fatal(err)
	}
	a, _ := withSnap.Get("snap")

	if err := os.Remove(filepath.Join(dir, "snap", snapFile)); err != nil {
		t.Fatal(err)
	}
	fullReplay := durableReg(t, dir, DurableOptions{})
	if _, err := fullReplay.Restore(dir); err != nil {
		t.Fatal(err)
	}
	b, _ := fullReplay.Get("snap")

	ba, bb := storeBytes(a), storeBytes(b)
	if len(ba) != len(bb) || len(ba) != len(events) {
		t.Fatalf("store sizes differ: snapshot=%d full=%d events=%d", len(ba), len(bb), len(events))
	}
	for v, enc := range ba {
		if !bytes.Equal(enc, bb[v]) {
			t.Fatalf("vertex %d: snapshot bytes %v != replay bytes %v", v, enc, bb[v])
		}
	}
}

// TestCorruptWALTailRecoversPrefix damages the log tail in several
// ways and checks recovery cleanly keeps the intact prefix, answers
// its queries correctly, and accepts new events afterwards.
func TestCorruptWALTailRecoversPrefix(t *testing.T) {
	g := compileBuiltin(t, "RunningExample")
	events, r := genEvents(t, g, 200, 5)

	build := func(t *testing.T) string {
		dir := t.TempDir()
		reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
		s, err := reg.Create("x", g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, s, events, 50)
		reg.Close()
		return dir
	}

	damage := map[string]func(t *testing.T, path string){
		"torn tail": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:len(raw)-7], 0o644)
		},
		"flipped bit": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			raw[len(raw)-20] ^= 0x40
			os.WriteFile(path, raw, 0o644)
		},
		// A frame that passes its CRC but spells its record with a byte
		// past its end: only a forged body could have put it there, and
		// it ends the valid prefix like damage does.
		"non-canonical frame": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			fr := wal.NewFrameReader(bytes.NewReader(raw))
			for fr.Offset() < int64(len(raw))/2 { // a batch frame past the middle
				fr.Next()
			}
			off := fr.Offset()
			frame, _ := fr.Next()
			forged := framed(append(bytes.Clone(frame[wal.FrameHeaderSize:]), 0))
			os.WriteFile(path, slices.Concat(raw[:off], forged, raw[fr.Offset():]), 0o644)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := build(t)
			hurt(t, filepath.Join(dir, "x", walFile))

			reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
			if _, err := reg.Restore(dir); err != nil {
				t.Fatal(err)
			}
			s, _ := reg.Get("x")
			n := int(s.Vertices())
			if n <= 0 || n >= len(events) {
				t.Fatalf("recovered %d events, want a proper nonempty prefix of %d", n, len(events))
			}
			checkOracle(t, s, events, r, n)

			// The truncated log accepts the rest of the stream again.
			appendAll(t, s, events[n:], 50)
			checkOracle(t, s, events, r, len(events))
			reg.Close()
		})
	}
}

// TestSnapshotAheadOfLogIsDiscarded models an OS crash with Fsync off:
// the snapshot survived but logged events did not. The snapshot claims
// more events than the WAL holds and must be ignored.
func TestSnapshotAheadOfLogIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, r := genEvents(t, g, 300, 13)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 50})
	s, err := reg.Create("x", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 50)
	reg.Close()

	// Rewind the WAL to before the last snapshot watermark.
	walPath := filepath.Join(dir, "x", walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)/4], 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("x")
	n := int(s2.Vertices())
	if n <= 0 || n >= len(events)/2 {
		t.Fatalf("recovered %d events from a quarter-length log of %d", n, len(events))
	}
	checkOracle(t, s2, events, r, n)
	reg2.Close()
}

// TestDurableConcurrentIngestQuerySnapshot exercises the durable write
// path under -race: one writer streams batches (snapshotting often)
// while readers hammer reach and lineage queries and stats.
func TestDurableConcurrentIngestQuerySnapshot(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 500, 21)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 32})
	s, err := reg.Create("hot", g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				n := s.Vertices()
				if n < 2 {
					continue
				}
				v := events[rng.Int63n(n)].V
				w := events[rng.Int63n(n)].V
				got, err := s.Reach(v, w)
				if err != nil {
					t.Errorf("reach(%d,%d): %v", v, w, err)
					return
				}
				if want := r.Reaches(v, w); got != want {
					t.Errorf("reach(%d,%d)=%v, want %v", v, w, got, want)
					return
				}
				s.Stats()
			}
		}(int64(i))
	}
	appendAll(t, s, events, 25)
	close(done)
	wg.Wait()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("hot")
	checkOracle(t, s2, events, r, len(events))
}

// TestDurableCreateValidation covers the filesystem-facing rules
// durable mode adds to Create.
func TestDurableCreateValidation(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	reg := durableReg(t, dir, DurableOptions{})
	cfg := Config{}

	for _, bad := range []string{"a/b", `a\b`, "..", ".", "a/../b"} {
		if _, err := reg.Create(bad, g, cfg); err == nil {
			t.Errorf("name %q accepted on a durable registry", bad)
		}
	}
	if _, err := reg.Create("ok", g, cfg); err != nil {
		t.Fatal(err)
	}
	// Leftover data (not an open session) also blocks creation.
	reg.Delete("ok")
	if err := os.MkdirAll(filepath.Join(dir, "stale"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stale", metaFile), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("stale", g, cfg); err == nil {
		t.Error("Create over leftover session data succeeded")
	}
}

// TestDurableDeleteRemovesData checks Delete tears down the on-disk
// state so the name is immediately reusable and gone after Restore.
func TestDurableDeleteRemovesData(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, _ := genEvents(t, g, 80, 2)
	reg := durableReg(t, dir, DurableOptions{})
	cfg := Config{}
	s, err := reg.Create("tmp", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 80)
	if !reg.Delete("tmp") {
		t.Fatal("Delete(tmp) = false")
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp")); !os.IsNotExist(err) {
		t.Fatalf("session directory survived delete: %v", err)
	}
	if _, err := reg.Create("tmp", g, cfg); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
	reg.Close()

	reg2 := durableReg(t, dir, DurableOptions{})
	restored, err := reg2.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "tmp" {
		t.Fatalf("restored %v, want only the recreated empty session", restored)
	}
	s2, _ := reg2.Get("tmp")
	if s2.Vertices() != 0 {
		t.Fatalf("deleted session's events came back: %d vertices", s2.Vertices())
	}
}

// TestDurableDeleteRacesIngestAndQueries deletes a durable session
// while a writer streams batches into it and readers query it (run
// with -race). Delete closes the WAL, so the writer's ingest is
// allowed to start failing with session_not_found at any point after
// the delete — but must never fail before it, never crash, and a query is
// answered correctly until the delete and correctly or session_not_found
// after it. The data directory must be gone when Delete returns and the
// name immediately reusable.
func TestDurableDeleteRacesIngestAndQueries(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 1500, 37)

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("doomed", g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const batch = 32
	watermark := new(atomic.Int64)
	deleteAsked := new(atomic.Bool)
	deleted := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: streams until done or the delete poisons ingest
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(events); lo += batch {
			hi := min(lo+batch, len(events))
			n, err := s.Append(events[lo:hi])
			if err != nil {
				if !deleteAsked.Load() {
					t.Errorf("append failed before the delete: %v", err)
				} else if !isDeleted(err) {
					t.Errorf("append after delete failed with %v, want session_not_found", err)
				}
				watermark.Add(int64(n))
				return
			}
			watermark.Store(int64(hi))
		}
	}()

	for ri := 0; ri < 3; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 300; q++ {
				wm := watermark.Load()
				if wm < 2 {
					q--
					continue
				}
				v := events[rng.Int63n(wm)].V
				w := events[rng.Int63n(wm)].V
				got, err := s.Reach(v, w)
				if isDeleted(err) && deleteAsked.Load() { // set before Delete retires anything
					continue
				}
				if err != nil {
					t.Errorf("reach(%d,%d): %v", v, w, err)
					return
				}
				if want := r.Graph.Reaches(v, w); got != want {
					t.Errorf("reach(%d,%d)=%v, want %v", v, w, got, want)
					return
				}
			}
		}(int64(ri))
	}

	wg.Add(1)
	go func() { // deleter: fires mid-stream
		defer wg.Done()
		defer close(deleted)
		for watermark.Load() < 5*batch {
			select {
			case <-done:
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		deleteAsked.Store(true)
		if !reg.Delete("doomed") {
			t.Error("Delete(doomed) = false")
		}
	}()

	<-deleted
	// The on-disk state is gone and the name reusable the moment Delete
	// returns, even while the detached session object may still be
	// ingesting or failing over to ErrDurability.
	if _, err := os.Stat(filepath.Join(dir, "doomed")); !os.IsNotExist(err) {
		t.Errorf("session directory survived delete: %v", err)
	}
	if _, err := reg.Create("doomed", g, Config{}); err != nil {
		t.Fatalf("recreate during in-flight ingest: %v", err)
	}
	<-done
	wg.Wait()

	// The deleted session is not resurrected by Restore; only the
	// recreated (empty) one comes back.
	reg.Close()
	reg2 := durableReg(t, dir, DurableOptions{})
	restored, err := reg2.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "doomed" {
		t.Fatalf("restored %v, want only the recreated session", restored)
	}
	s2, _ := reg2.Get("doomed")
	if s2.Vertices() != 0 {
		t.Fatalf("deleted session's events came back: %d vertices", s2.Vertices())
	}
}

// TestRestoreOnlyItsOwnDirectory: a registry restores its own data
// directory, however the path is spelled, and refuses any other with an
// error naming both — opening nothing there, and creating nothing where
// the other path does not exist.
func TestRestoreOnlyItsOwnDirectory(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "RunningExample")
	events, _ := genEvents(t, g, 60, 3)
	reg := durableReg(t, dir, DurableOptions{})
	s, err := reg.Create("own", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 20)
	reg.Close()
	walPath := filepath.Join(dir, "own", walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail, which a restore of this directory would cut off.
	torn := raw[:len(raw)-5]
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	other := durableReg(t, t.TempDir(), DurableOptions{})
	missing := filepath.Join(t.TempDir(), "missing")
	for _, wrong := range []string{dir, missing} {
		names, err := other.Restore(wrong)
		if err == nil || len(names) != 0 || !strings.Contains(err.Error(), wrong) || !strings.Contains(err.Error(), other.opts.Dir) {
			t.Fatalf("Restore(%s) on a registry over %s: %v, %v; want an error naming both", wrong, other.opts.Dir, names, err)
		}
	}
	if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, torn) {
		t.Fatal("a refused restore modified the log")
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused restore created %s: %v", missing, err)
	}
	if other.Len() != 0 {
		t.Fatalf("a refused restore opened %v", other.Names())
	}

	// The same directory spelled relative to the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(wd, dir)
	if err != nil {
		t.Fatal(err)
	}
	own := durableReg(t, dir, DurableOptions{})
	if names, err := own.Restore(rel + string(filepath.Separator)); err != nil || len(names) != 1 {
		t.Fatalf("Restore(%s) = %v, %v; want [own]", rel, names, err)
	}
}

// TestRestoreRefusesLabelsPastMaxEntries is the restore-replay side of
// TestIngestRefusesLabelsPastMaxEntries: a log written before the limit
// was enforced can hold a record whose label no longer fits the count
// frame. Replay stops there like at any record the labeler rejects —
// the valid prefix is kept and queryable, the tail is cut — and the
// session comes back closed to ingest with the typed error, on both
// restore paths (arena snapshot plus tail, and log alone).
func TestRestoreRefusesLabelsPastMaxEntries(t *testing.T) {
	g, events, deepAt := deepStream(t)
	for name, snapshotEvery := range map[string]int{"arena and tail": 64, "log alone": -1} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			reg := durableReg(t, dir, DurableOptions{SnapshotEvery: snapshotEvery})
			s, err := reg.Create("deep", g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, s, events[:deepAt], 64)
			reg.Close()
			if snapshotEvery < 0 {
				os.Remove(filepath.Join(dir, "deep", snapFile))
			}
			// What a pre-limit server would have logged next.
			var tail []byte
			for _, ev := range events[deepAt : deepAt+3] {
				if tail, err = wal.AppendFrame(tail, wal.RefRecord(ev)); err != nil {
					t.Fatal(err)
				}
			}
			f, err := os.OpenFile(filepath.Join(dir, "deep", walFile), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			reg = durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
			defer reg.Close()
			if _, err := reg.Restore(dir); err != nil {
				t.Fatal(err)
			}
			s, _ = reg.Get("deep")
			if s.Vertices() != int64(deepAt) {
				t.Fatalf("restored %d vertices, want the %d before the deep label", s.Vertices(), deepAt)
			}
			if _, err := s.Reach(events[0].V, events[deepAt-1].V); err != nil {
				t.Fatalf("prefix not queryable: %v", err)
			}
			n, err := s.Append(events[deepAt+1:])
			requireTooDeep(t, err)
			if n != 0 {
				t.Fatalf("ingest after the refusal applied %d events", n)
			}
		})
	}
}

// TestNegativeVertexIDIsRefusedNotLost: a run whose source is numbered
// -7 used to be acknowledged in full and then, because the log cannot
// frame a negative id and its reader took the first record for a torn
// tail, come back from Restore as an empty session with no error. An
// acknowledgement and a loss must never go together: whatever a door
// acknowledges survives a restart, and what it will not keep it
// refuses, typed, before anything is applied.
func TestNegativeVertexIDIsRefusedNotLost(t *testing.T) {
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 80, 11)
	src := events[0].V
	renumber := func(v graph.VertexID) graph.VertexID {
		if v == src {
			return -7
		}
		return v
	}
	for i := range events {
		events[i].V = renumber(events[i].V)
		for j, p := range events[i].Preds {
			events[i].Preds[j] = renumber(p)
		}
	}
	doors := map[string]func(t *testing.T, reg *Registry, s *Session) (acked int){
		"in-process": func(t *testing.T, _ *Registry, s *Session) int {
			n, err := s.Append(events)
			if err == nil || n != 0 {
				t.Errorf("Append applied %d events, err %v; want a refusal at event 0", n, err)
			}
			return n
		},
		"json": func(t *testing.T, reg *Registry, _ *Session) int {
			srv := httptest.NewServer(NewHandler(reg))
			defer srv.Close()
			wire := make([]api.Event, len(events))
			for i, ev := range events {
				wire[i] = api.FromRun(ev)
			}
			var ok api.EventsResponse
			code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/neg/events", api.EventsRequest{Events: wire}, &ok)
			if code == http.StatusOK {
				t.Errorf("negative vertex id acknowledged: %s", raw)
				return ok.Applied
			}
			expectCode(t, 400, api.CodeBadEvent, code, raw)
			return 0
		},
	}
	for name, ingest := range doors {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			reg := durableReg(t, dir, DurableOptions{})
			s, err := reg.Create("neg", g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			acked := ingest(t, reg, s)
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := durableReg(t, dir, DurableOptions{})
			defer reg2.Close()
			if _, err := reg2.Restore(dir); err != nil {
				t.Fatal(err)
			}
			if s2, ok := reg2.Get("neg"); !ok || s2.Vertices() != int64(acked) {
				t.Fatalf("%d events acknowledged, restored session holds %d", acked, s2.Vertices())
			}
		})
	}
}

// TestCloseOfAFailedSessionSnapshotsOnlyItsLog: a log append that fails
// poisons the session, and the batch's staged label is published
// although its log never got it. A graceful close must not snapshot that
// label: the restore holds exactly the logged prefix, and the
// unacknowledged event can be sent again, with answers that match BFS.
func TestCloseOfAFailedSessionSnapshotsOnlyItsLog(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 500, 11)
	const logged = 400
	if len(events) <= logged {
		t.Fatalf("%d events", len(events))
	}
	reg := durableReg(t, dir, DurableOptions{})
	s, err := reg.Create("ghost", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendFramed(t, s, events[:logged], 50)
	// A teed frame the log refuses: an all-zero header.
	n, err := s.AppendRecords([]wal.Record{wal.RefRecord(events[logged])}, [][]byte{make([]byte, wal.FrameHeaderSize)})
	if n != 1 || !errors.Is(err, ErrDurability) {
		t.Fatalf("a refused frame: applied %d, %v; want 1 and a durability failure", n, err)
	}
	if s.Vertices() != logged+1 || s.WALSeq() != logged {
		t.Fatalf("the failed batch left %d vertices over %d logged records", s.Vertices(), s.WALSeq())
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	switch a, err := arena.Open(filepath.Join(dir, "ghost", snapFile)); {
	case err == nil:
		if a.Count() != int(a.Events()) || a.Events() > logged {
			t.Errorf("the close snapshotted %d labels for %d records of a %d-record log", a.Count(), a.Events(), logged)
		}
		a.Close()
	case !errors.Is(err, fs.ErrNotExist):
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("ghost")
	if s2.Vertices() != logged || s2.WALSeq() != logged {
		t.Fatalf("restored %d vertices over %d logged records, want %d", s2.Vertices(), s2.WALSeq(), logged)
	}
	appendFramed(t, s2, events[logged:], 50) // the unacknowledged event first
	checkOracle(t, s2, events, r, len(events))
}

// TestIngestAfterRegistryClose: a batch that reaches a session after
// Registry.Close is refused whole with not_durable — in process, and
// as a 400 with applied 0 on both HTTP ingest forms — never as a server
// failure, and is applied when sent again after a restart.
func TestIngestAfterRegistryClose(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 200, 5)
	reg := durableReg(t, dir, DurableOptions{})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	s, err := reg.Create("c", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendFramed(t, s, events[:100], 25)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	next := events[100:110]
	notDurable := func(form string, n int, err error) {
		t.Helper()
		var ae *api.Error
		if n != 0 || !errors.As(err, &ae) || ae.Code != api.CodeNotDurable {
			t.Errorf("%s after Close: applied %d, %v; want 0 and %s", form, n, err, api.CodeNotDurable)
		}
	}
	n, err := s.Append(next)
	notDurable("Append", n, err)
	n, err = s.AppendRecords([]wal.Record{wal.RefRecord(next[0])}, nil)
	notDurable("AppendRecords", n, err)
	wire := make([]api.Event, len(next))
	for i, ev := range next {
		wire[i] = api.FromRun(ev)
	}
	for form, post := range map[string]func(out any) (int, string){
		"JSON": func(out any) (int, string) {
			return doJSON(t, "POST", srv.URL+"/v1/sessions/c/events", api.EventsRequest{Events: wire}, out)
		},
		"binary": func(out any) (int, string) {
			return postBinary(t, srv.URL+"/v1/sessions/c/events", frameStream(t, next), out)
		},
	} {
		var resp api.ErrorResponse
		if code, raw := post(&resp); code != http.StatusBadRequest || resp.Err == nil || resp.Err.Code != api.CodeNotDurable || resp.Applied != 0 {
			t.Errorf("%s ingest after Close: %d %s, want 400 %s with applied 0", form, code, raw, api.CodeNotDurable)
		}
	}
	if s.Vertices() != 100 {
		t.Fatalf("refused batches left %d vertices, want 100", s.Vertices())
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("c")
	appendFramed(t, s2, events[100:], 25)
	checkOracle(t, s2, events, r, len(events))
}
