package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// compositeEvents returns a RunningExample execution and, as the ref
// and the named event that would follow its source, g0's loop module L
// claimed as an executed vertex. L is composite: an instance of h1
// executes it, so it never gets a run vertex of its own.
func compositeEvents(t *testing.T) (g *spec.Grammar, events []run.Event, ref run.Event, named core.NamedEvent) {
	g = compileBuiltin(t, "RunningExample")
	events, _ = genEvents(t, g, 40, 3)
	l := graph.VertexID(1)
	if name := g.Spec().Graph(spec.StartGraph).G.Name(l); name != "L" {
		t.Fatalf("g0's vertex 1 is %s, want the loop module L", name)
	}
	preds := []graph.VertexID{events[0].V}
	ref = run.Event{V: events[1].V, Ref: spec.VertexRef{Graph: spec.StartGraph, V: l}, Preds: preds}
	named = core.NamedEvent{V: events[1].V, Name: "L", Preds: preds}
	return g, events, ref, named
}

// TestCompositeVertexIsBadEvent: an event that names a composite
// vertex, by reference or by name, used to bind a run vertex to the
// composite and issue a label the codec cannot store, panicking inside
// the ingest loop with ingestMu held. It is a partial-batch error at
// its index — bad_event on the wire — and the execution goes on.
func TestCompositeVertexIsBadEvent(t *testing.T) {
	g, events, ref, named := compositeEvents(t)
	for name, bad := range map[string]func(s *Session) (int, error){
		"ref": func(s *Session) (int, error) { return s.Append([]run.Event{events[0], ref}) },
		"named": func(s *Session) (int, error) {
			return s.AppendNamed([]core.NamedEvent{{V: events[0].V, Name: "s0"}, named})
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, _ := durableReg(t, t.TempDir(), DurableOptions{}).Create("c", g, Config{})
			if n, err := bad(s); err == nil || n != 1 {
				t.Fatalf("batch with a composite vertex: %d applied, %v; want 1 and a refusal", n, err)
			}
			appendAll(t, s, events[1:], 16)
			if s.Vertices() != int64(len(events)) {
				t.Fatalf("%d vertices, want %d", s.Vertices(), len(events))
			}
		})
	}

	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "c", Builtin: "RunningExample"}, nil)
	for i, batch := range [][]api.Event{{api.FromRun(events[0]), api.FromRun(ref)}, {namedWire(named)}} {
		// The source goes in with the first batch.
		code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/c/events", api.EventsRequest{Events: batch}, nil)
		expectCode(t, 400, api.CodeBadEvent, code, raw)
		var resp api.ErrorResponse
		if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Applied != 1-i {
			t.Fatalf("batch %d: applied = %s, want %d", i, raw, 1-i)
		}
	}
	events = events[1:]
	wire := make([]api.Event, len(events))
	for i, ev := range events {
		wire[i] = api.FromRun(ev)
	}
	var ok api.EventsResponse
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/c/events", api.EventsRequest{Events: wire}, &ok); code != 200 {
		t.Fatalf("batch after the refusals: %d %s", code, raw)
	}
}

// TestRestoreStopsAtACompositeVertexRecord: a log written by a build
// that bound a run vertex to a composite one holds a record this
// labeler refuses. Replay stops there like at any refused record: the
// prefix comes back, the record and what follows it are cut, and the
// session goes on ingesting from the prefix.
func TestRestoreStopsAtACompositeVertexRecord(t *testing.T) {
	g, events, ref, named := compositeEvents(t)
	for name, rec := range map[string]wal.Record{"ref": wal.RefRecord(ref), "named": wal.NamedRecord(named)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
			s, err := reg.Create("c", g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, s, events[:1], 1)
			reg.Close()
			tail, err := wal.AppendFrame(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, "c", walFile), os.O_APPEND|os.O_WRONLY, 0)
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
			s, _ = reg.Get("c")
			if s.Vertices() != 1 {
				t.Fatalf("restored %d vertices, want the source alone", s.Vertices())
			}
			appendAll(t, s, events[1:], 16)
			if s.Vertices() != int64(len(events)) {
				t.Fatalf("%d vertices after resuming, want %d", s.Vertices(), len(events))
			}
		})
	}
}
