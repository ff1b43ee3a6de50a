package store_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wfspecs"
)

func filled(t *testing.T, target int, seed int64) (*store.Store, *run.Run) {
	t.Helper()
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: target, Seed: seed})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(g)
	var entries []store.Entry
	for _, v := range r.Graph.LiveVertices() {
		entries = append(entries, store.Entry{V: v, Enc: s.Encode(d.MustLabel(v))})
	}
	if err := s.AppendOwned(entries); err != nil {
		t.Fatal(err)
	}
	s.Publish()
	return s, r
}

func TestReachFromStoredBytes(t *testing.T) {
	s, r := filled(t, 150, 1)
	live := r.Graph.LiveVertices()
	for _, v := range live {
		for _, w := range live {
			got, err := s.Reach(v, w)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.Graph.Reaches(v, w); got != want {
				t.Fatalf("store.Reach(%d,%d)=%v, want %v", v, w, got, want)
			}
		}
	}
}

func TestLineage(t *testing.T) {
	s, r := filled(t, 100, 2)
	snk := r.Graph.Sinks()[0]
	lin, err := s.Lineage(snk)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range r.Graph.LiveVertices() {
		if r.Graph.Reaches(v, snk) {
			want++
		}
	}
	if len(lin) != want {
		t.Fatalf("lineage size = %d, want %d", len(lin), want)
	}
	// Ascending, includes the vertex itself (reflexive).
	found := false
	for i, v := range lin {
		if i > 0 && lin[i-1] >= v {
			t.Fatal("lineage not sorted")
		}
		if v == snk {
			found = true
		}
	}
	if !found {
		t.Fatal("lineage must include the vertex itself")
	}
}

func TestPutRejectsDuplicates(t *testing.T) {
	s, r := filled(t, 60, 3)
	v := r.Graph.LiveVertices()[0]
	enc, _ := s.GetRaw(v)
	if err := s.AppendOwned([]store.Entry{{V: v, Enc: bytes.Clone(enc)}}); err == nil {
		t.Fatal("a second label for a stored vertex accepted (labels are immutable)")
	}
}

func TestGetAndErrors(t *testing.T) {
	s, r := filled(t, 60, 4)
	v := r.Graph.LiveVertices()[0]
	if enc, ok := s.GetRaw(v); !ok || len(enc) == 0 {
		t.Fatalf("GetRaw: %v %v", enc, ok)
	}
	if _, ok := s.GetRaw(99999); ok {
		t.Fatal("GetRaw of unknown vertex reported ok")
	}
	if _, err := s.Reach(99999, v); !errors.Is(err, store.ErrNotStored) {
		t.Fatalf("Reach with unknown vertex: %v", err)
	}
	if _, err := s.Reach(v, 99999); !errors.Is(err, store.ErrNotStored) {
		t.Fatalf("Reach with unknown vertex: %v", err)
	}
	if _, err := s.Lineage(99999); !errors.Is(err, store.ErrNotStored) {
		t.Fatalf("Lineage of unknown vertex: %v", err)
	}
	// A stored label that does not parse is a different failure: the
	// walk reports it, and not as a missing vertex.
	// Its last byte holds no stop bit, so not even its end can be read.
	if err := s.AppendOwned([]store.Entry{{V: 99999, Enc: []byte{0}}}); err != nil {
		t.Fatal(err)
	}
	s.Publish()
	if _, err := s.Reach(v, 99999); err == nil || errors.Is(err, store.ErrNotStored) {
		t.Fatalf("Reach against a truncated label: %v", err)
	}
	if _, err := s.Lineage(v); err == nil || errors.Is(err, store.ErrNotStored) {
		t.Fatalf("Lineage over a truncated label: %v", err)
	}
}

func TestStats(t *testing.T) {
	s, r := filled(t, 80, 5)
	if s.Count() != r.Size() {
		t.Fatalf("Count = %d, want %d", s.Count(), r.Size())
	}
	if s.Bits() <= 0 {
		t.Fatal("Bits must be positive")
	}
	// Encoded storage stays in the tens of bits per vertex.
	if perVertex := float64(s.Bits()) / float64(s.Count()); perVertex > 200 {
		t.Fatalf("stored %.0f bits per vertex", perVertex)
	}
}

func TestRawBytesQueryPath(t *testing.T) {
	s, r := filled(t, 120, 4)
	live := r.Graph.LiveVertices()
	for _, v := range live {
		bv, ok := s.GetRaw(v)
		if !ok || len(bv) == 0 {
			t.Fatalf("GetRaw(%d) = %v, %v", v, bv, ok)
		}
		for _, w := range live {
			bw, _ := s.GetRaw(w)
			got, err := s.ReachBytes(bv, bw)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.Graph.Reaches(v, w); got != want {
				t.Fatalf("ReachBytes(%d,%d)=%v, want %v", v, w, got, want)
			}
		}
	}
	if _, ok := s.GetRaw(99999); ok {
		t.Fatal("GetRaw of unstored vertex succeeded")
	}
	if _, err := s.ReachBytes(nil, nil); err == nil {
		t.Fatal("ReachBytes on empty bytes succeeded")
	}
}

// TestStagePublishVisibility checks the batch contract: staged labels
// are invisible until Publish, then all visible at once.
func TestStagePublishVisibility(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: 8})
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
	if err := s.AppendOwned(entries); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 || s.Bits() != 0 {
		t.Fatalf("staged labels already counted: count=%d bits=%d", s.Count(), s.Bits())
	}
	if _, ok := s.GetRaw(live[0]); ok {
		t.Fatal("staged label visible before Publish")
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("epoch before publish = %d", got)
	}

	if got := s.Publish(); got != 1 {
		t.Fatalf("first publish epoch = %d, want 1", got)
	}
	if s.Count() != len(live) {
		t.Fatalf("published %d labels, want %d", s.Count(), len(live))
	}
	for _, v := range live {
		if _, ok := s.GetRaw(v); !ok {
			t.Fatalf("vertex %d missing after Publish", v)
		}
	}
	// A no-op publish does not advance the epoch.
	if got := s.Publish(); got != 1 {
		t.Fatalf("no-op publish epoch = %d, want 1", got)
	}

	// Duplicates are rejected whether published or still staged.
	if err := s.AppendOwned([]store.Entry{{V: live[0], Enc: []byte{1}}}); err == nil {
		t.Fatal("duplicate of a published vertex accepted")
	}
	// Its last byte holds no stop bit, so not even its end can be read.
	if err := s.AppendOwned([]store.Entry{{V: 99999, Enc: []byte{0}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendOwned([]store.Entry{{V: 99999, Enc: []byte{2}}}); err == nil {
		t.Fatal("duplicate of a staged vertex accepted")
	}
}

// TestConcurrentBatchIngestQuery is the store's own concurrency
// contract test (run with -race): one writer stages and publishes
// batches while readers hammer the lock-free query path — GetRaw,
// Reach, Lineage, SnapshotEntries and stats — over whatever prefix is
// published, checking every reach answer against the BFS oracle. Each
// batch also carries a stray: a copy of its first label under an id in
// an index page of its own (one of them far out), so the page directory
// grows with every batch and the segment directory several times while
// readers are mid-lookup, and every label a reader can see must be
// byte-equal to what was staged.
func TestConcurrentBatchIngestQuery(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 1500, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(g)

	const batch = 48
	stray := func(lo int) graph.VertexID {
		if lo == 10*batch {
			return 1 << 27
		}
		return graph.VertexID(1<<17 + lo*100)
	}
	published := new(atomic.Int64) // events published so far
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // single writer: stage a batch, publish, advance
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(events); lo += batch {
			hi := min(lo+batch, len(events))
			entries := make([]store.Entry, 0, hi-lo+1)
			for _, ev := range events[lo:hi] {
				entries = append(entries, store.Entry{V: ev.V, Enc: s.Encode(d.MustLabel(ev.V))})
			}
			entries = append(entries, store.Entry{V: stray(lo), Enc: entries[0].Enc})
			if err := s.AppendOwned(entries); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			s.Publish()
			published.Store(int64(hi))
		}
	}()

	for ri := 0; ri < 4; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 400; q++ {
				n := published.Load()
				if n < 2 {
					q--
					continue
				}
				v := events[rng.Int63n(n)].V
				w := events[rng.Int63n(n)].V
				got, err := s.Reach(v, w)
				if err != nil {
					t.Errorf("reach(%d,%d): %v", v, w, err)
					return
				}
				if want := r.Graph.Reaches(v, w); got != want {
					t.Errorf("reach(%d,%d)=%v, want %v", v, w, got, want)
					return
				}
				// Any batch's stray, published or not: visible once its
				// batch is, and never with other bytes than were staged.
				lo := rng.Intn(len(events)) / batch * batch
				enc, ok := s.GetRaw(stray(lo))
				if !ok && int64(lo) < n {
					t.Errorf("stray %d of a published batch is not visible", stray(lo))
					return
				}
				if ok && !bytes.Equal(enc, s.Encode(d.MustLabel(events[lo].V))) {
					t.Errorf("stray %d reads back %x", stray(lo), enc)
					return
				}
				switch q % 40 {
				case 0:
					if _, err := s.Lineage(v); err != nil {
						t.Errorf("lineage(%d): %v", v, err)
						return
					}
				case 1:
					if got := len(s.SnapshotEntries()); int64(got) < n {
						// Snapshot races later publishes, but can never
						// hold fewer labels than were published before
						// the call.
						t.Errorf("snapshot has %d labels, published %d", got, n)
						return
					}
				case 2:
					s.Epoch()
					s.Count()
					s.Bits()
				}
			}
		}(int64(ri))
	}
	wg.Wait()

	// Everything is published: the lineage of the final sink matches a
	// full oracle scan (a stray reaches what the label it copies does).
	last := events[len(events)-1].V
	lin, err := s.Lineage(last)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i, ev := range events {
		if r.Graph.Reaches(ev.V, last) {
			want++
			if i%batch == 0 {
				want++
			}
		}
	}
	if len(lin) != want {
		t.Fatalf("lineage size %d, want %d", len(lin), want)
	}
	for i := 1; i < len(lin); i++ {
		if lin[i-1] >= lin[i] {
			t.Fatal("lineage not ascending")
		}
	}
}
