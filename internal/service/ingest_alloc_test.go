//go:build !race

package service

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// The allocation gates of the ingest path, skipped under -race like
// their siblings in core, store and integrity (the detector allocates).
// An event's natural cost is "walk to the instance, write the label
// where it will be read": every stage between the socket and the slab
// allocates per batch if at all, and an opened instance carves its
// node, its slices, its place in the parent's child list and its prefix
// from the parse tree's slab, which allocates a chunk now and then.
// instanceAllowance is the room a gate gives each opened instance —
// core's bound on those refills (TestOpenedInstanceAllocatesOnlyChunks);
// batchAllowance the constant it gives a batch — a store index page
// every fourth batch, a label segment now and then; the commit round
// allocates nothing. A per-event allocation creeping back adds the
// batch size to a batch, two orders of magnitude more than either.
const (
	instanceAllowance = 0.25
	batchAllowance    = 1
)

// mallocs returns the process's allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// opens counts the events that open an instance: source dummies of any
// graph but g0.
func opens(g *spec.Grammar, events []run.Event) (n int) {
	for _, ev := range events {
		if ev.Ref.Graph != spec.StartGraph && ev.Ref.V == g.Spec().Graph(ev.Ref.Graph).G.Source() {
			n++
		}
	}
	return n
}

// allocGateSession is a durable BioAID session (the benchmark's flush
// policy: no fsync, no periodic snapshots) and a stream to feed it.
func allocGateSession(t *testing.T, size int) (*Registry, *Session, []run.Event) {
	t.Helper()
	reg := durableReg(t, t.TempDir(), DurableOptions{SnapshotEvery: -1})
	t.Cleanup(func() { reg.Close() })
	g := compileBuiltin(t, "BioAID")
	s, err := reg.Create("gate", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := genEvents(t, g, size, 31)
	return reg, s, events
}

// TestAppendRecordsAllocatesPerBatch: into a warm durable session, a
// 256-event batch of records with their frames — label, log, encode in
// place, publish, commit — allocates under one object plus the chunk
// refills of the instances it opens. Not one per event: the gate sits
// two orders of magnitude under the batch size.
func TestAppendRecordsAllocatesPerBatch(t *testing.T) {
	const batch = 256
	_, s, events := allocGateSession(t, 40_000)
	var b batchScratch
	var total, opened, batches int
	for lo := 0; lo+batch <= len(events); lo += batch {
		b.reset()
		for _, ev := range events[lo : lo+batch] {
			frame, err := wal.AppendFrame(nil, wal.RefRecord(ev))
			if err != nil {
				t.Fatal(err)
			}
			b.add(wal.RefRecord(ev), frame)
		}
		before := mallocs()
		n, err := s.AppendRecords(b.recs, b.frames)
		after := mallocs()
		if err != nil || n != batch {
			t.Fatalf("batch at %d: applied %d: %v", lo, n, err)
		}
		if lo < len(events)/4 {
			continue // warming up: segments, pages and buffers still growing
		}
		total += int(after - before)
		opened += opens(s.g, events[lo:lo+batch])
		batches++
	}
	if batches < 50 {
		t.Fatalf("only %d batches measured", batches)
	}
	mean, instances := float64(total)/float64(batches), float64(opened)/float64(batches)
	t.Logf("%d batches of %d events: %.1f allocations and %.1f opened instances each", batches, batch, mean, instances)
	if limit := batchAllowance + instanceAllowance*instances; mean > limit {
		t.Errorf("a %d-event batch opening %.1f instances allocates %.1f objects, want at most %.1f", batch, instances, mean, limit)
	}
}

// TestBinaryHandlerAllocatesPerRequest drives handleEventsBinary through
// ServeHTTP with an in-memory recorder: a 512-event body costs the
// objects a 64-event body costs plus the instances it opens — reader,
// records, frame copies and predecessor arena all come from the free list,
// whatever the body's size.
func TestBinaryHandlerAllocatesPerRequest(t *testing.T) {
	reg, s, events := allocGateSession(t, 60_000)
	h := NewHandler(reg)
	post := func(evs []run.Event) int {
		body := bytes.NewReader(frameStream(t, evs))
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/gate/events", body)
		req.Header.Set("Content-Type", api.ContentTypeFrame)
		rec := httptest.NewRecorder()
		before := mallocs()
		h.ServeHTTP(rec, req)
		after := mallocs()
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
		}
		return int(after - before)
	}
	sizes := [2]int{64, 512}
	var total, opened, requests [2]int
	for lo, k := 0, 0; lo+sizes[k] <= len(events); k = 1 - k {
		evs := events[lo : lo+sizes[k]]
		n := post(evs)
		if lo >= len(events)/4 {
			total[k] += n
			opened[k] += opens(s.g, evs)
			requests[k]++
		}
		lo += len(evs)
	}
	if requests[0] < 50 || requests[1] < 50 {
		t.Fatalf("measured %v requests", requests)
	}
	var mean, instances [2]float64
	for k := range sizes {
		mean[k], instances[k] = float64(total[k])/float64(requests[k]), float64(opened[k])/float64(requests[k])
		t.Logf("%d requests of %d events: %.1f allocations and %.1f opened instances each", requests[k], sizes[k], mean[k], instances[k])
	}
	if limit := mean[0] + instanceAllowance*(instances[1]-instances[0]); mean[1] > limit {
		t.Errorf("a 512-event body allocates %.1f objects, a 64-event body %.1f: want the same but for the %.1f more instances it opens (at most %.1f)",
			mean[1], mean[0], instances[1]-instances[0], limit)
	}
}

// TestReplayAllocatesPerInstance: restoring a session from its log
// alone re-labels and re-encodes every event, and allocates well under
// one object per event doing it — what is left is per session (its spec
// and grammar are most of it) and per chunk.
func TestReplayAllocatesPerInstance(t *testing.T) {
	reg, s, events := allocGateSession(t, 40_000)
	appendAll(t, s, events, 256)
	if err := reg.Close(); err != nil { // SnapshotEvery -1: no snapshot, the log is all there is
		t.Fatal(err)
	}
	reg2 := durableReg(t, reg.opts.Dir, DurableOptions{SnapshotEvery: -1})
	before := mallocs()
	names, err := reg2.Restore(reg.opts.Dir)
	after := mallocs()
	if err != nil || len(names) != 1 {
		t.Fatalf("restore: %v, %v", names, err)
	}
	s2, _ := reg2.Get("gate")
	if s2.Vertices() != int64(len(events)) {
		t.Fatalf("restored %d of %d events", s2.Vertices(), len(events))
	}
	perEvent := float64(after-before) / float64(len(events))
	t.Logf("replaying %d events (%d instances opened): %.3f allocations per event", len(events), opens(s.g, events), perEvent)
	if perEvent >= 0.5 {
		t.Errorf("replay allocates %.3f objects per event, want under 0.5", perEvent)
	}
}

// TestDeferredReplayAllocatesPerChunk: after a restore whose snapshot
// covers the whole log, the first Append rebuilds the labeler from the
// log. It allocates per parse-tree chunk, not per event: the walk
// decodes every batch frame into the same scratch.
func TestDeferredReplayAllocatesPerChunk(t *testing.T) {
	const logged = 20_000
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	g := compileBuiltin(t, "BioAID")
	s, err := reg.Create("gate", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := genEvents(t, g, logged+1000, 31)
	if len(events) <= logged {
		t.Fatalf("generated %d events, want more than %d", len(events), logged)
	}
	appendAll(t, s, events[:logged], 256) // Append logs a frame per batch
	// Close leaves a snapshot that covers the whole log.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	t.Cleanup(func() { reg2.Close() })
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("gate")
	if !s2.needLabelerReplay {
		t.Fatal("a restore the snapshot covers whole should defer the labeler")
	}
	before := mallocs()
	_, err = s2.Append(events[logged : logged+1])
	after := mallocs()
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after-before) / logged
	t.Logf("first write after a hash-only restore of %d events (%d instances opened): %d allocations, %.3f per event",
		logged, opens(g, events[:logged]), after-before, perEvent)
	if perEvent >= 0.1 {
		t.Errorf("the deferred replay allocates %.3f objects per event, want under 0.1", perEvent)
	}
}

// TestBinaryReachHandlerAllocatesPerRequest drives the binary arm of
// handleReachBatch through ServeHTTP with an in-memory recorder: a
// 4,096-pair batch costs the objects a 64-pair batch costs — body,
// pairs, bitmap and response all come from the free list, and an answer
// is a bit, so a pair allocates nothing. (The one object more is the
// Content-Length of a response past 99 bytes: strconv keeps only the
// two-digit strings ready.)
func TestBinaryReachHandlerAllocatesPerRequest(t *testing.T) {
	reg, s, events := allocGateSession(t, 8_000)
	appendAll(t, s, events, 256)
	h := NewHandler(reg)
	rng := rand.New(rand.NewSource(3))
	post := func(n int) int {
		pairs := make([]api.ReachPair, n)
		for i := range pairs {
			pairs[i] = api.ReachPair{From: int32(events[rng.Intn(len(events))].V), To: int32(events[rng.Intn(len(events))].V)}
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/gate/reach", bytes.NewReader(api.AppendReachRequest(nil, pairs)))
		req.Header.Set("Content-Type", api.ContentTypeReach)
		rec := httptest.NewRecorder()
		before := mallocs()
		h.ServeHTTP(rec, req)
		after := mallocs()
		if answers, err := api.DecodeReachResponseInto(nil, pairs, rec.Body.Bytes()); rec.Code != http.StatusOK || err != nil || len(answers) != n {
			t.Fatalf("reach of %d pairs: %d %v", n, rec.Code, err)
		}
		return int(after - before)
	}
	sizes := [2]int{64, api.MaxReachPairs}
	post(sizes[1]) // warm: the scratch grows to a full batch once
	var total [2]int
	const requests = 50
	for range requests {
		for k, n := range sizes {
			total[k] += post(n)
		}
	}
	small, large := float64(total[0])/requests, float64(total[1])/requests
	t.Logf("%d requests each: %.1f allocations for %d pairs, %.1f for %d", requests, small, sizes[0], large, sizes[1])
	if large > small+1.5 {
		t.Errorf("a %d-pair batch allocates %.1f objects, a %d-pair batch %.1f: want the same, a pair costs none", sizes[1], large, sizes[0], small)
	}
}

// TestCleanRestoreAllocatesPerSession: restoring a session a clean
// shutdown left — the first 1,024 events of a BioAID execution, a
// snapshot over all of them — costs a session's fixed price: metadata,
// specification, grammar, the arena's mapping and index pages, the log
// reopened. A spec decoder that allocated per XML token would cost
// thousands more.
func TestCleanRestoreAllocatesPerSession(t *testing.T) {
	const logged, limit = 1024, 2500
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{})
	g := compileBuiltin(t, "BioAID")
	s, err := reg.Create("gate", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := genEvents(t, g, 100_000, 1)
	appendAll(t, s, events[:logged], 256)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := durableReg(t, dir, DurableOptions{})
	t.Cleanup(func() { reg2.Close() })
	before := mallocs()
	names, err := reg2.Restore(dir)
	after := mallocs()
	if err != nil || len(names) != 1 {
		t.Fatalf("restore: %v, %v", names, err)
	}
	if s2, _ := reg2.Get("gate"); s2.Vertices() != logged || !s2.needLabelerReplay {
		t.Fatalf("restored %d of %d events from the log, want all from the snapshot", s2.Vertices(), logged)
	}
	t.Logf("restoring a %d-event session: %d allocations", logged, after-before)
	if after-before > limit {
		t.Errorf("restoring a %d-event session allocates %d objects, want at most %d", logged, after-before, limit)
	}
}
