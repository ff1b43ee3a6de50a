package store_test

import (
	"bytes"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wfspecs"
)

// buildRun labels a generated run and returns its grammar and encoded
// entries.
func buildRun(t *testing.T, size int) (*spec.Grammar, []store.Entry) {
	t.Helper()
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: 7})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(g)
	live := r.Graph.LiveVertices()
	entries := make([]store.Entry, 0, len(live))
	for _, v := range live {
		entries = append(entries, store.Entry{V: v, Enc: s.Encode(d.MustLabel(v))})
	}
	return g, entries
}

// splitArena writes the first half of entries into an arena file and
// returns the opened arena plus the second half for live staging.
func splitArena(t *testing.T, entries []store.Entry) (*arena.Arena, []store.Entry) {
	t.Helper()
	cut := len(entries) / 2
	aes := make([]arena.Entry, cut)
	for i, e := range entries[:cut] {
		aes[i] = arena.Entry{V: e.V, Enc: e.Enc}
	}
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := arena.Write(path, arena.Meta{Events: int64(cut), HasChain: true}, aes); err != nil {
		t.Fatal(err)
	}
	a, err := arena.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return a, entries[cut:]
}

func TestArenaBackedStoreMatchesHeapStore(t *testing.T) {
	g, entries := buildRun(t, 600)

	heap := store.New(g)
	owned := make([]store.Entry, len(entries))
	for i, e := range entries {
		owned[i] = store.Entry{V: e.V, Enc: bytes.Clone(e.Enc)}
	}
	if err := heap.AppendOwned(owned); err != nil {
		t.Fatal(err)
	}
	heap.Publish()

	a, tail := splitArena(t, entries)
	ab, err := store.NewFromArena(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := ab.ArenaCount(); got != len(entries)-len(tail) {
		t.Fatalf("ArenaCount = %d, want %d", got, len(entries)-len(tail))
	}
	// Layer the rest as ordinary staged ingest over the arena.
	tailOwned := make([]store.Entry, len(tail))
	for i, e := range tail {
		tailOwned[i] = store.Entry{V: e.V, Enc: bytes.Clone(e.Enc)}
	}
	if err := ab.AppendOwned(tailOwned); err != nil {
		t.Fatal(err)
	}
	ab.Publish()

	if ab.Count() != heap.Count() {
		t.Fatalf("Count = %d, want %d", ab.Count(), heap.Count())
	}
	if ab.Bits() != heap.Bits() {
		t.Fatalf("Bits = %d, want %d", ab.Bits(), heap.Bits())
	}
	for _, e := range entries {
		enc, ok := ab.GetRaw(e.V)
		if !ok || !bytes.Equal(enc, e.Enc) {
			t.Fatalf("GetRaw(%d): ok=%v", e.V, ok)
		}
	}
	if _, ok := ab.GetRaw(graph.VertexID(1 << 29)); ok {
		t.Fatal("GetRaw found a vertex that was never stored")
	}
	// Reach and Lineage agree with the heap store everywhere.
	vs := make([]graph.VertexID, len(entries))
	for i, e := range entries {
		vs[i] = e.V
	}
	for i := 0; i < 40; i++ {
		v, w := vs[i%len(vs)], vs[(i*7+3)%len(vs)]
		got, err := ab.Reach(v, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := heap.Reach(v, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Reach(%d,%d) = %v, heap says %v", v, w, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		v := vs[(i*13)%len(vs)]
		got, err := ab.Lineage(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := heap.Lineage(v)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Lineage(%d) diverges: %v vs %v", v, got, want)
		}
	}
}

func TestArenaStoreRejectsDuplicateOfArenaVertex(t *testing.T) {
	g, entries := buildRun(t, 200)
	a, _ := splitArena(t, entries)
	s, err := store.NewFromArena(g, a)
	if err != nil {
		t.Fatal(err)
	}
	v := entries[0].V // in the arena half
	if err := s.AppendOwned([]store.Entry{{V: v, Enc: []byte{0x01}}}); err == nil {
		t.Fatal("staging a vertex the arena already holds must fail")
	}
}

func TestAttachArenaRequiresEmptyStore(t *testing.T) {
	g, entries := buildRun(t, 200)
	a, _ := splitArena(t, entries)
	s := store.New(g)
	if err := s.AppendOwned([]store.Entry{{V: 1 << 20, Enc: []byte{0x01}}}); err != nil {
		t.Fatal(err)
	}
	s.Publish()
	if err := s.AttachArena(a, nil); err == nil {
		t.Fatal("attaching an arena to a non-empty store must fail")
	}
	s2 := store.New(g)
	if err := s2.AttachArena(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.AttachArena(a, nil); err == nil {
		t.Fatal("attaching a second arena must fail")
	}
}

func TestSnapshotEntriesCoversArenaAndShards(t *testing.T) {
	g, entries := buildRun(t, 400)
	a, tail := splitArena(t, entries)
	s, err := store.NewFromArena(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tailOwned := make([]store.Entry, len(tail))
	for i, e := range tail {
		tailOwned[i] = store.Entry{V: e.V, Enc: bytes.Clone(e.Enc)}
	}
	if err := s.AppendOwned(tailOwned); err != nil {
		t.Fatal(err)
	}
	s.Publish()

	got := s.SnapshotEntries()
	if len(got) != len(entries) {
		t.Fatalf("SnapshotEntries returned %d entries, want %d", len(got), len(entries))
	}
	byV := make(map[graph.VertexID][]byte, len(got))
	for _, e := range got {
		if _, dup := byV[e.V]; dup {
			t.Fatalf("vertex %d appears twice", e.V)
		}
		byV[e.V] = e.Enc
	}
	for _, e := range entries {
		if !bytes.Equal(byV[e.V], e.Enc) {
			t.Fatalf("vertex %d bytes diverge", e.V)
		}
	}
	runtime.KeepAlive(s) // got aliases the mapping s owns
}

// TestQueryPathAllocations pins what decode-free queries buy, on a
// store that is half mapped arena and half heap segments: ReachBytes allocates
// nothing, and a lineage scan allocates for its result only — the same
// number of times whether it walks three hundred labels or three
// thousand.
func TestQueryPathAllocations(t *testing.T) {
	lineageAllocs := make(map[int]float64)
	for _, size := range []int{300, 3000} {
		g, entries := buildRun(t, size)
		a, tail := splitArena(t, entries)
		s, err := store.NewFromArena(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendOwned(tail); err != nil {
			t.Fatal(err)
		}
		s.Publish()

		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			bv, _ := s.GetRaw(entries[i%len(entries)].V)
			bw, _ := s.GetRaw(entries[(i*7+3)%len(entries)].V)
			if _, err := s.ReachBytes(bv, bw); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Fatalf("%d labels: ReachBytes allocates %v times per pair", size, n)
		}

		// The run's source has one ancestor, itself, at any run size.
		src := entries[0].V
		if lin, err := s.Lineage(src); err != nil || len(lin) != 1 {
			t.Fatalf("Lineage(%d) = %v, %v; want the vertex alone", src, lin, err)
		}
		lineageAllocs[size] = testing.AllocsPerRun(20, func() {
			if _, err := s.Lineage(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	if lineageAllocs[300] != lineageAllocs[3000] || lineageAllocs[300] > 8 {
		t.Fatalf("Lineage allocations grow with the store: %v", lineageAllocs)
	}
}
