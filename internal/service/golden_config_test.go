package service

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/wal"
)

// TestGoldenConfigRestore restores testdata/golden-config, a data
// directory written when a session could choose its labeling (its
// README says how): "bfs" is a BioAID session labeled with BFS skeleton
// labels, "nor" a Fig12 session labeled without R nodes, each closed
// with a WFSNAP08 snapshot over three quarters of its run. Neither
// snapshot is adopted — the format is an older one, whatever labels it
// holds — so each session re-issues its labels from the log, and holds
// what a session created now issues for the same events. Each then
// takes the rest of its run, and sampled pairs of old and new vertices
// answer as a search over the events' predecessors does. The close
// writes each session a snapshot of this build's labels, and a second
// restore adopts both whole and answers the same.
func TestGoldenConfigRestore(t *testing.T) {
	src := filepath.Join("testdata", "golden-config")
	dir := t.TempDir()
	sessions := []string{"bfs", "nor"}
	for _, name := range sessions {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{metaFile, specFile, walFile, snapFile} {
			b, err := os.ReadFile(filepath.Join(src, name, f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// No snapshot before the close, which writes one.
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 30})
	if _, err := reg.Restore(dir); err != nil {
		t.Fatal(err)
	}
	runs := map[string][2][]run.Event{}
	for _, name := range sessions {
		s, _ := reg.Get(name)
		old := walEvents(t, filepath.Join(src, name, walFile))
		rest := walEvents(t, filepath.Join(src, name+"-rest.wal"))
		runs[name] = [2][]run.Event{old, rest}
		if st := s.Stats(); st.Vertices != int64(len(old)) || st.ArenaVertices != 0 {
			t.Fatalf("%s: restored %+v; want %d vertices and none from the WFSNAP08 snapshot", name, st, len(old))
		}
		// Whatever the session holds is what a session created now
		// issues for the same events.
		got := storeBytes(s)
		fresh, err := NewRegistry().Create(name, s.g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, fresh, old, 64)
		for v, enc := range storeBytes(fresh) {
			if !bytes.Equal(got[v], enc) {
				t.Fatalf("%s: vertex %d holds %x, a new session issues %x", name, v, got[v], enc)
			}
		}
		appendAll(t, s, rest, 64)
		checkOldAndNew(t, s, old, rest)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
	defer reg2.Close()
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range sessions {
		s, _ := reg2.Get(name)
		ev := runs[name]
		n := int64(len(ev[0]) + len(ev[1]))
		if st := s.Stats(); st.Vertices != n || st.ArenaVertices != n {
			t.Fatalf("%s: second restore %+v; want all %d vertices from the snapshot the close wrote", name, st, n)
		}
		a, err := arena.Open(filepath.Join(dir, name, snapFile))
		if err != nil {
			t.Fatal(err)
		}
		got := storeBytes(s)
		a.Range(func(v graph.VertexID, enc []byte) bool {
			if !bytes.Equal(got[int32(v)], enc) {
				t.Fatalf("%s: vertex %d serves %x, the snapshot holds %x", name, v, got[int32(v)], enc)
			}
			return true
		})
		a.Close()
		checkOldAndNew(t, s, ev[0], ev[1])
	}
}

// walEvents reads the events logged in the file at path.
func walEvents(t *testing.T, path string) []run.Event {
	t.Helper()
	var out []run.Event
	if _, _, err := wal.Scan(path, func(_ int, rec wal.Record) error {
		out = append(out, rec.Ref)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s holds no events", path)
	}
	return out
}

// checkOldAndNew checks 3,000 sampled pairs each of old×old, old×new
// and new×new vertices, both ways round, against reachability over the
// events' predecessors.
func checkOldAndNew(t *testing.T, s *Session, old, rest []run.Event) {
	t.Helper()
	events := slices.Concat(old, rest)
	// Events arrive in topological order, so each one's ancestors are
	// its predecessors' plus itself.
	idx := make(map[graph.VertexID]int, len(events))
	anc := make([][]uint64, len(events))
	for i, ev := range events {
		idx[ev.V] = i
		anc[i] = make([]uint64, (len(events)+63)/64)
		anc[i][i/64] |= 1 << (i % 64)
		for _, p := range ev.Preds {
			for w, bits := range anc[idx[p]] {
				anc[i][w] |= bits
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, class := range [][2][]run.Event{{old, old}, {old, rest}, {rest, rest}} {
		for range 3000 {
			u, v := class[0][rng.Intn(len(class[0]))].V, class[1][rng.Intn(len(class[1]))].V
			for _, pair := range [][2]graph.VertexID{{u, v}, {v, u}} {
				i, j := idx[pair[0]], idx[pair[1]]
				want := anc[j][i/64]&(1<<(i%64)) != 0
				if got, err := s.Reach(pair[0], pair[1]); err != nil || got != want {
					t.Fatalf("%s: reach(%d,%d) = %v, %v; the predecessors say %v", s.Name(), pair[0], pair[1], got, err, want)
				}
			}
		}
	}
}
