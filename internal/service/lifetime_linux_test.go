//go:build linux

package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
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
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
)

// snapMappings asks the kernel: the number of lines of /proc/self/maps
// naming a labels.snap under dir — what this process has mapped of it
// right now, a replaced or removed file ("… (deleted)") included.
func snapMappings(t *testing.T, dir string) int {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir+string(filepath.Separator)) && strings.Contains(line, snapFile) {
			n++
		}
	}
	return n
}

// arenaGauges reads the three gauges that follow a node's mappings.
func arenaGauges(r *Registry) [3]int64 {
	m := r.metrics
	return [3]int64{m.arenaMaps.Value(), m.arenaVerts.Value(), m.arenaBytes.Value()}
}

// TestDeleteGivesTheMappingBack: Delete of a restored session unmaps its
// snapshot — at once if nobody is reading, otherwise when the last
// reader that was already inside leaves — and the gauges follow the
// mapping, not the session.
func TestDeleteGivesTheMappingBack(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, 300, 5)
	closedSession(t, dir, "held", g, events)
	fi, err := os.Stat(filepath.Join(dir, "held", snapFile))
	if err != nil {
		t.Fatal(err)
	}

	reg := durableReg(t, dir, DurableOptions{})
	defer reg.Close()
	before := arenaGauges(reg)
	if _, err := reg.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s, _ := reg.Get("held")
	mapped := [3]int64{before[0] + 1, before[1] + int64(len(events)), before[2] + fi.Size()}
	if got := snapMappings(t, dir); got != 1 {
		t.Fatalf("%d mappings of the snapshot after restore, want 1", got)
	}
	if got := arenaGauges(reg); got != mapped {
		t.Fatalf("gauges after restore (maps, vertices, bytes) = %v, want %v", got, mapped)
	}
	if got := reg.MetricsSnapshot(); got.ArenaMaps != mapped[0] || got.ArenaMappedBytes != mapped[2] {
		t.Fatalf("node stats report %d maps, %d mapped bytes; want %d, %d", got.ArenaMaps, got.ArenaMappedBytes, mapped[0], mapped[2])
	}

	// A request that got in before the delete.
	if !s.store.Enter() {
		t.Fatal("a live session refused a reader")
	}
	if !reg.Delete("held") {
		t.Fatal("Delete(held) = false")
	}
	v, w := events[3].V, events[len(events)-1].V
	if _, err := s.Reach(v, w); !isDeleted(err) {
		t.Fatalf("Reach through the held session after delete: %v, want session_not_found", err)
	}
	if got := snapMappings(t, dir); got != 1 {
		t.Fatalf("%d mappings with a reader still inside, want 1", got)
	}
	if got := arenaGauges(reg); got != mapped {
		t.Fatalf("gauges fell to %v while the mapping is still there (%v)", got, mapped)
	}
	if got, err := s.reach(v, w); err != nil || got != r.Reaches(v, w) {
		t.Fatalf("the reader inside reads reach(%d,%d) = %v, %v", v, w, got, err)
	}
	s.store.Leave()

	if got := snapMappings(t, dir); got != 0 {
		t.Fatalf("%d mappings after the last reader left, want none", got)
	}
	if got := arenaGauges(reg); got != before {
		t.Fatalf("gauges after the unmap = %v, want the pre-restore %v", got, before)
	}
}

// TestDroppedRegistriesGiveTheirMappingsBack restarts one data directory
// fifty times the way a library caller (or the restart benchmark) does —
// open, Restore, query, first write, Close, forget — and never deletes
// anything. Close keeps sessions queryable, so nothing is unmapped
// there; the mappings go back when the collector finds the registries
// unreachable, and the process holds a handful at most, not fifty.
func TestDroppedRegistriesGiveTheirMappingsBack(t *testing.T) {
	const (
		rounds   = 50
		perRound = 4
		first    = 200
		bound    = 4 // the round just dropped, plus cleanups queued but not yet run
	)
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, r := genEvents(t, g, first+rounds*perRound, 11)
	if len(events) < first+rounds*perRound {
		t.Fatalf("generated %d events, need %d", len(events), first+rounds*perRound)
	}
	closedSession(t, dir, "s", g, events[:first])

	restart := func(have int) {
		reg := durableReg(t, dir, DurableOptions{})
		if _, err := reg.Restore(dir); err != nil {
			t.Fatal(err)
		}
		s, _ := reg.Get("s")
		if got := s.Stats().ArenaVertices; got != int64(have) {
			t.Fatalf("restart at %d events serves %d labels from the snapshot", have, got)
		}
		v, w := events[have/3].V, events[have-1].V
		if got, err := s.Reach(v, w); err != nil || got != r.Reaches(v, w) {
			t.Fatalf("reach(%d,%d) = %v, %v", v, w, got, err)
		}
		appendAll(t, s, events[have:have+perRound], perRound)
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	peak := 0
	for i := range rounds {
		restart(first + i*perRound)
		runtime.GC()
		peak = max(peak, snapMappings(t, dir))
	}
	if peak > bound {
		t.Errorf("up to %d snapshot mappings alive over %d restarts, want at most %d", peak, rounds, bound)
	}
	for deadline := time.Now().Add(10 * time.Second); snapMappings(t, dir) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings never given back", snapMappings(t, dir))
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeleteUnderQueryHammer lands a Delete on a restored session while
// eight goroutines query it (run with -race): every answer is the BFS
// answer or session_not_found, nothing is refused before the delete was
// asked for, nothing faults, and the mapping is gone when the readers
// are — also with a writer driving periodic snapshots, whose writer
// goroutine holds the mapped labels across the delete.
func TestDeleteUnderQueryHammer(t *testing.T) {
	for _, tc := range []struct {
		name      string
		snapEvery int
	}{
		{"queries", -1},
		{"queries and periodic snapshots", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const first = 240
			dir := t.TempDir()
			g := compileBuiltin(t, "BioAID")
			events, r := genEvents(t, g, 600, 23)
			closedSession(t, dir, "doomed", g, events[:first])
			reg := durableReg(t, dir, DurableOptions{SnapshotEvery: tc.snapEvery})
			defer reg.Close()
			before := arenaGauges(reg)
			if _, err := reg.Restore(dir); err != nil {
				t.Fatal(err)
			}
			s, _ := reg.Get("doomed")
			if got := snapMappings(t, dir); got != 1 {
				t.Fatalf("%d mappings after restore, want 1", got)
			}

			// Lineage targets with their ancestors inside the restored
			// prefix, which every scan sees whole.
			targets := make([]graph.VertexID, 12)
			ancestors := make([][]graph.VertexID, len(targets))
			for i := range targets {
				targets[i] = events[first-1-i*7].V
				for _, e := range events[:first] {
					if r.Reaches(e.V, targets[i]) {
						ancestors[i] = append(ancestors[i], e.V)
					}
				}
				slices.Sort(ancestors[i])
			}

			var deleteAsked atomic.Bool
			var queries atomic.Int64
			var wg sync.WaitGroup
			for ri := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(ri)))
					for q := 0; ; q++ {
						gone := false
						if (q+ri)%2 == 0 {
							pairs := make([]api.ReachPair, 8)
							for i := range pairs {
								pairs[i] = api.ReachPair{From: int32(events[rng.Intn(first)].V), To: int32(events[rng.Intn(first)].V)}
							}
							for i, a := range s.ReachBatch(pairs) {
								switch {
								case a.Code == api.CodeSessionNotFound:
									gone = true
								case a.Code != "":
									t.Errorf("reach(%d,%d): %s: %s", a.From, a.To, a.Code, a.Error)
									return
								case gone:
									t.Errorf("pair %d answered in a batch that refused an earlier pair", i)
									return
								case a.Reachable != r.Reaches(graph.VertexID(a.From), graph.VertexID(a.To)):
									t.Errorf("reach(%d,%d) = %v, BFS disagrees", a.From, a.To, a.Reachable)
									return
								}
							}
						} else {
							i := rng.Intn(len(targets))
							page, _, err := s.LineagePage(targets[i], graph.None, len(events))
							switch {
							case isDeleted(err):
								gone = true
							case err != nil:
								t.Errorf("lineage(%d): %v", targets[i], err)
								return
							default:
								// Whatever the writer has added since: events
								// arrive in a topological order, so a prefix
								// vertex has all its ancestors in the prefix.
								if !slices.Equal(page, ancestors[i]) {
									t.Errorf("lineage(%d) = %v, BFS says %v", targets[i], page, ancestors[i])
									return
								}
							}
						}
						queries.Add(1)
						if gone {
							// Asked is set before Delete retires anything.
							if !deleteAsked.Load() {
								t.Error("a query was refused before the delete was asked for")
							}
							return
						}
					}
				}()
			}
			if tc.snapEvery > 0 {
				wg.Add(1)
				go func() { // keeps a snapshot writer in flight until the delete closes the log
					defer wg.Done()
					for lo := first; lo < len(events); lo += 4 {
						if _, err := s.Append(events[lo:min(lo+4, len(events))]); err != nil {
							if !deleteAsked.Load() || !errors.Is(err, ErrDurability) {
								t.Errorf("append: %v", err)
							}
							return
						}
					}
				}()
			}
			for queries.Load() < 400 {
				time.Sleep(100 * time.Microsecond)
			}
			deleteAsked.Store(true)
			if !reg.Delete("doomed") {
				t.Error("Delete(doomed) = false")
			}
			wg.Wait()
			if got := snapMappings(t, dir); got != 0 {
				t.Fatalf("%d mappings after the delete and the last reader, want none", got)
			}
			if got := arenaGauges(reg); got != before {
				t.Fatalf("gauges after the unmap = %v, want the pre-restore %v", got, before)
			}
		})
	}
}

// TestFailedRestoreLeavesNoMapping is a table over the ways a restore
// does not keep the snapshot it opened — refused before adopting it,
// refused after, re-run without it — plus the duplicate-name Restore
// that must not map a second copy: in every row the process ends up
// with exactly the mappings its live sessions serve from, and the
// gauges agree.
func TestFailedRestoreLeavesNoMapping(t *testing.T) {
	image := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 150, 33)
	reg := durableReg(t, image, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("x", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:100], 25)
	s.snapWG.Wait() // let the mid-stream snapshot land
	s.ingestMu.Lock()
	s.snapEvery = -1
	s.ingestMu.Unlock()
	appendAll(t, s, events[100:], 25)
	// The crash: no Close. A snapshot mid-stream, a log tail past it.

	walRaw, err := os.ReadFile(filepath.Join(image, "x", walFile))
	if err != nil {
		t.Fatal(err)
	}
	snapRaw, err := os.ReadFile(filepath.Join(image, "x", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{0} // ends[k]: the byte offset k frames end at
	for off := int64(0); off < int64(len(walRaw)); {
		off += 8 + int64(binary.LittleEndian.Uint32(walRaw[off:]))
		ends = append(ends, off)
	}
	a, err := arena.Open(filepath.Join(image, "x", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	covered := int(a.Events())
	a.Close()
	if covered < 20 || covered > len(events)-20 || ends[covered] != a.WALBytes() {
		t.Fatalf("image: snapshot covers %d of %d events", covered, len(events))
	}
	flipped := func(b []byte, at int64) []byte {
		out := bytes.Clone(b)
		out[at] ^= 0x01
		return out
	}
	// A covered frame replaced by a copy of its predecessor: intact on
	// the wire, a duplicate vertex to the labeler.
	k := covered / 2
	rejected := slices.Concat(walRaw[:ends[k]], walRaw[ends[k-1]:ends[k]], walRaw[ends[k+1]:])

	rows := []struct {
		name     string
		wal      []byte // nil: pristine
		snap     []byte // nil: pristine
		readOnly bool   // the log cannot be reopened for writing
		refused  string // restore fails with an error naming this; "": it boots
		records  int    // recovered, when it boots
	}{
		{name: "label bytes contradict the Merkle root", snap: flipped(snapRaw, int64(len(snapRaw))-2), refused: "integrity"},
		{name: "snapshot ahead of the log", wal: walRaw[:ends[covered-10]], records: covered - 10},
		{name: "covered record the labeler rejects", wal: rejected, records: k},
		{name: "covered frame rewritten", wal: flipped(walRaw, ends[k]+9), refused: "integrity"},
		{name: "log cannot be reopened", readOnly: true, refused: "permission denied"},
	}
	for _, tc := range rows {
		if tc.readOnly && os.Geteuid() == 0 {
			t.Logf("%s: skipped, root opens read-only files for writing", tc.name)
			continue
		}
		dir := t.TempDir()
		sdir := filepath.Join(dir, "x")
		if err := os.Mkdir(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{metaFile, specFile} {
			raw, err := os.ReadFile(filepath.Join(image, "x", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sdir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wal, snap, mode := tc.wal, tc.snap, os.FileMode(0o644)
		if wal == nil {
			wal = walRaw
		}
		if snap == nil {
			snap = snapRaw
		}
		if tc.readOnly {
			mode = 0o444
		}
		if err := os.WriteFile(filepath.Join(sdir, walFile), wal, mode); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, snapFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}

		reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
		before := arenaGauges(reg)
		_, err := reg.Restore(dir)
		switch {
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%s: restore = %v, want a refusal naming %q", tc.name, err, tc.refused)
		case tc.refused == "" && err != nil:
			t.Errorf("%s: restore = %v, want it to boot from the log alone", tc.name, err)
		case tc.refused == "":
			s, _ := reg.Get("x")
			if st := s.Stats(); st.Vertices != int64(tc.records) || st.ArenaVertices != 0 {
				t.Errorf("%s: booted with %d vertices, %d from the snapshot; want %d, 0", tc.name, st.Vertices, st.ArenaVertices, tc.records)
			}
		}
		if got := snapMappings(t, dir); got != 0 {
			t.Errorf("%s: %d mappings of the snapshot left behind", tc.name, got)
		}
		if got := arenaGauges(reg); got != before {
			t.Errorf("%s: gauges (maps, vertices, bytes) = %v, want the pre-restore %v", tc.name, got, before)
		}
		reg.Close()
	}

	// A second Restore of a name that is live must not touch its files,
	// let alone map them again.
	reg = durableReg(t, image, DurableOptions{SnapshotEvery: -1})
	defer reg.Close()
	if _, err := reg.Restore(image); err != nil {
		t.Fatal(err)
	}
	mapped := arenaGauges(reg)
	if _, err := reg.Restore(image); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("second Restore = %v, want the duplicate-name refusal", err)
	}
	if got := snapMappings(t, image); got != 1 {
		t.Errorf("%d mappings after a refused duplicate Restore, want the live session's one", got)
	}
	if got := arenaGauges(reg); got != mapped {
		t.Errorf("gauges moved on a refused duplicate Restore: %v, were %v", got, mapped)
	}
	reg.Delete("x")
	if got := snapMappings(t, image); got != 0 {
		t.Errorf("%d mappings after the delete, want none", got)
	}
}
