//go:build !race

package store_test

import (
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/store"
)

// TestStageAllocatesPerBatchNotPerLabel is the allocation gate on the
// store's write path: into a warm store (its segments have reached
// their full size), staging and publishing a 256-label batch allocates
// a constant few objects — every fourth batch an index page and the
// directory that holds it, every couple of hundred a segment — where a
// map-per-shard store allocated per label. That holds for both ways in:
// Stage, which encodes each label into its extent (what ingest does),
// and AppendOwned, which copies bytes encoded elsewhere.
func TestStageAllocatesPerBatchNotPerLabel(t *testing.T) {
	const batch = 256
	g, labels := buildRun(t, 2000)
	s := store.New(g, skeleton.TCL)
	codec := label.NewCodec(g)
	decoded := make([]label.Label, len(labels))
	for i, e := range labels {
		var err error
		if decoded[i], err = codec.Decode(e.Enc); err != nil {
			t.Fatal(err)
		}
	}
	next := graph.VertexID(0)
	entries := make([]store.Entry, batch)
	stage := func() {
		for i := range entries {
			entries[i] = store.Entry{V: next, Enc: labels[int(next)%len(labels)].Enc}
			next++
		}
		if err := s.AppendOwned(entries); err != nil {
			t.Fatal(err)
		}
		s.Publish()
	}
	encode := func() {
		for range batch {
			if err := s.Stage(next, decoded[int(next)%len(decoded)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		s.Publish()
	}
	for range 400 {
		stage()
	}
	if avg := testing.AllocsPerRun(400, stage); avg > 4 {
		t.Fatalf("staging and publishing %d labels allocates %.2f objects, want O(1)", batch, avg)
	}
	if avg := testing.AllocsPerRun(400, encode); avg > 4 {
		t.Fatalf("encoding %d labels into the slab and publishing allocates %.2f objects, want O(1)", batch, avg)
	}
	if s.Count() != int(next) {
		t.Fatalf("store holds %d labels, staged %d", s.Count(), next)
	}
}
