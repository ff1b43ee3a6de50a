package service

import (
	"errors"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// isDeleted reports whether err is the typed refusal a query gets on a
// session Delete has retired.
func isDeleted(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == api.CodeSessionNotFound
}

// closedSession ingests events into a new durable BioAID-style session
// under dir and closes the registry: the directory then holds a snapshot
// covering the whole log, so the next Restore serves every one of those
// labels from the snapshot.
func closedSession(t *testing.T, dir, name string, g *spec.Grammar, events []run.Event) {
	t.Helper()
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create(name, g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 64)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeletedSessionAnswersNotFound holds a *Session across its Delete,
// restored from a snapshot or created in this process alike: every read
// entry point refuses with session_not_found — on a platform that maps
// the snapshot that is what stands between the caller and a fault — and
// the counters keep answering.
func TestDeletedSessionAnswersNotFound(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 300, 5)
	closedSession(t, dir, "held", g, events)
	reg := durableReg(t, dir, DurableOptions{})
	if _, err := reg.Restore(dir); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	restored, _ := reg.Get("held")
	fresh, err := reg.Create("fresh", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, fresh, events, 64)

	for _, s := range []*Session{restored, fresh} {
		v, w := events[0].V, events[len(events)-1].V
		if _, err := s.Reach(v, w); err != nil {
			t.Fatalf("%s: reach before delete: %v", s.Name(), err)
		}
		if !reg.Delete(s.Name()) {
			t.Fatalf("Delete(%s) = false", s.Name())
		}
		if _, err := s.Reach(v, w); !isDeleted(err) {
			t.Errorf("%s: Reach after delete: %v, want session_not_found", s.Name(), err)
		}
		if _, err := lineage(s, w); !isDeleted(err) {
			t.Errorf("%s: Lineage after delete: %v, want session_not_found", s.Name(), err)
		}
		if _, _, err := s.LineagePage(w, graph.None, 10); !isDeleted(err) {
			t.Errorf("%s: LineagePage after delete: %v, want session_not_found", s.Name(), err)
		}
		for i, a := range s.ReachBatch([]api.ReachPair{{From: int32(v), To: int32(w)}, {From: int32(w), To: int32(v)}}) {
			if a.Code != api.CodeSessionNotFound || a.Reachable {
				t.Errorf("%s: ReachBatch answer %d after delete: %+v, want session_not_found", s.Name(), i, a)
			}
		}
		if got := s.Stats().Vertices; got != int64(len(events)) {
			t.Errorf("%s: Stats after delete counts %d vertices, want %d", s.Name(), got, len(events))
		}
	}
}
