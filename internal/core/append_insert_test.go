package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// TestAllocationFreeStagesMatchTheirWrappers is the differential the
// ingest path's in-place stages answer to. On every corpus run, each
// stage's allocation-free form is held against the allocating wrapper
// the benchmark and the tests still call:
//
//   - AppendInsert into one reused buffer ≡ Insert, entry for entry;
//   - Store.Stage, encoding into the slab, read back through GetRaw ≡
//     Codec.Encode, byte for byte;
//   - DecodePayload with one reused arena ≡ DecodePayload into a fresh
//     one.
//
// The shared buffers are defaced after every event, the way the next
// event will overwrite them: nothing downstream may still be reading.
func TestAllocationFreeStagesMatchTheirWrappers(t *testing.T) {
	for name, r := range diffRuns(t) {
		evs := shuffledExecution(t, r, rand.New(rand.NewSource(int64(len(name)))))
		plain := core.NewExecutionLabeler(r.Grammar, skeleton.TCL, core.RModeDesignated)
		appending := core.NewExecutionLabeler(r.Grammar, skeleton.TCL, core.RModeDesignated)
		codec := label.NewCodec(r.Grammar)
		st := store.New(r.Grammar, skeleton.TCL)
		want := make(map[graph.VertexID][]byte, len(evs))

		var entries []label.Entry
		var arena []graph.VertexID
		var frame []byte
		for i, ev := range evs {
			// Arena decode of the event's own frame feeds the labeler.
			var err error
			if frame, err = wal.AppendFrame(frame[:0], wal.RefRecord(ev)); err != nil {
				t.Fatal(err)
			}
			alone, err := wal.DecodePayload(nil, new([]graph.VertexID), frame[wal.FrameHeaderSize:])
			if err != nil || len(alone) != 1 {
				t.Fatalf("%s: event %d: %d records, %v", name, i, len(alone), err)
			}
			arena = append(arena[:0], 77, 77, 77) // a neighbour's predecessors
			recs, err := wal.DecodePayload(nil, &arena, frame[wal.FrameHeaderSize:])
			if err != nil || len(recs) != 1 {
				t.Fatalf("%s: event %d: %d records, %v", name, i, len(recs), err)
			}
			rec, owned := recs[0], alone[0]
			if !reflect.DeepEqual(rec, owned) || !reflect.DeepEqual(owned, wal.RefRecord(ev)) {
				t.Fatalf("%s: event %d decodes to %+v into an arena, %+v alone, framed from %+v", name, i, rec, owned, ev)
			}
			if len(arena) != 3+len(ev.Preds) || arena[0] != 77 || cap(rec.Ref.Preds) != len(rec.Ref.Preds) {
				t.Fatalf("%s: event %d: arena %v after a record with predecessors %v (cap %d)", name, i, arena, rec.Ref.Preds, cap(rec.Ref.Preds))
			}

			l, err := plain.Insert(ev)
			if err != nil {
				t.Fatalf("%s: event %d: %v", name, i, err)
			}
			if entries, err = appending.AppendInsert(entries[:0], rec.Ref); err != nil {
				t.Fatalf("%s: event %d: %v", name, i, err)
			}
			if !l.Equal(label.Label{Entries: entries}) {
				t.Fatalf("%s: vertex %d: AppendInsert issued %v, Insert %v", name, ev.V, label.Label{Entries: entries}, l)
			}

			if err := st.Stage(ev.V, label.Label{Entries: entries}); err != nil {
				t.Fatalf("%s: vertex %d: %v", name, ev.V, err)
			}
			if _, visible := st.GetRaw(ev.V); visible {
				t.Fatalf("%s: vertex %d visible before Publish", name, ev.V)
			}
			want[ev.V] = codec.Encode(l)

			for k := range entries {
				entries[k] = label.Entry{Index: -7}
			}
			for k := range arena {
				arena[k] = -9
			}
			if i%64 == 63 {
				st.Publish()
			}
		}
		st.Publish()
		for v, enc := range want {
			if got, ok := st.GetRaw(v); !ok || !bytes.Equal(got, enc) {
				t.Fatalf("%s: vertex %d: slab holds %x, Encode gives %x", name, v, got, enc)
			}
		}
		if err := st.Stage(evs[0].V, label.Label{}); err == nil {
			t.Fatalf("%s: a second label for vertex %d staged", name, evs[0].V)
		}
		// The named entry point, on the specifications that allow it.
		if r.Grammar.Spec().NameResolvable() != nil {
			continue
		}
		named := core.NewExecutionLabeler(r.Grammar, skeleton.TCL, core.RModeDesignated)
		for i, ev := range evs {
			var err error
			entries, err = named.AppendInsertNamed(entries[:0], core.NamedEvent{V: ev.V, Name: r.NameOf(ev.V), Preds: ev.Preds})
			if err != nil {
				t.Fatalf("%s: named event %d: %v", name, i, err)
			}
			if got, _ := plain.Label(ev.V); !got.Equal(label.Label{Entries: entries}) {
				t.Fatalf("%s: vertex %d: AppendInsertNamed issued %v, Insert %v", name, ev.V, label.Label{Entries: entries}, got)
			}
		}
	}
}

// TestAppendInsertLeavesDstOnError: a refused event returns the
// caller's buffer as it was — same length, same contents.
func TestAppendInsertLeavesDstOnError(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	evs, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	keep := []label.Entry{{Index: 41}, {Index: 42}}
	for _, bad := range []run.Event{
		{V: 0, Ref: evs[1].Ref, Preds: evs[1].Preds},  // before the source of g0
		{V: 0, Ref: spec.VertexRef{Graph: 99, V: 0}},  // unknown graph
		{V: -1, Ref: evs[0].Ref},                      // negative vertex
		{V: 0, Ref: evs[0].Ref, Preds: evs[1].Preds},  // unknown predecessor
		{V: 0, Ref: spec.VertexRef{Graph: 0, V: 999}}, // unknown spec vertex
	} {
		got, err := e.AppendInsert(keep, bad)
		if err == nil || len(got) != 2 || got[0].Index != 41 || got[1].Index != 42 {
			t.Fatalf("AppendInsert(%+v) = %v, %v", bad, got, err)
		}
		if _, err := e.AppendInsertNamed(keep, core.NamedEvent{V: bad.V, Name: "no such module", Preds: bad.Preds}); err == nil {
			t.Fatalf("AppendInsertNamed accepted an unknown module at %+v", bad)
		}
	}
	if got, err := e.AppendInsert(keep, evs[0]); err != nil || len(got) != 3 || got[0].Index != 41 {
		t.Fatalf("first event after refusals: %v, %v", got, err)
	}
}

// TestVertexTableAnswersLikeTheMap: the paged vertex table gives the
// answers the map it replaced gave, at the edges a map never noticed —
// a negative id and an id never seen are unknown (as a vertex, as a
// predecessor, to Label), a duplicate is refused, and a far-out id is
// just another vertex.
func TestVertexTableAnswersLikeTheMap(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	evs, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Renumber one mid-stream vertex far out: its page is the only one
	// between the first and a directory of 1<<17 entries.
	const far = graph.VertexID(1 << 27)
	moved := evs[len(evs)/2].V
	renumber := func(v graph.VertexID) graph.VertexID {
		if v == moved {
			return far
		}
		return v
	}
	want, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	for i, ev := range evs {
		ev.V = renumber(ev.V)
		preds := make([]graph.VertexID, len(ev.Preds))
		for k, p := range ev.Preds {
			preds[k] = renumber(p)
		}
		ev.Preds = preds
		if i > 0 {
			for why, bad := range map[string]run.Event{
				"negative vertex":      {V: -3, Ref: ev.Ref, Preds: ev.Preds},
				"negative predecessor": {V: ev.V, Ref: ev.Ref, Preds: append(preds[:len(preds):len(preds)], -1)},
				"unseen predecessor":   {V: ev.V, Ref: ev.Ref, Preds: append(preds[:len(preds):len(preds)], far+1)},
				"unseen on a far page": {V: ev.V, Ref: ev.Ref, Preds: append(preds[:len(preds):len(preds)], 1<<30)},
				"duplicate vertex":     {V: renumber(evs[i-1].V), Ref: ev.Ref, Preds: ev.Preds},
			} {
				if _, err := e.Insert(bad); err == nil {
					t.Fatalf("event %d: %s accepted", i, why)
				}
			}
		}
		l, err := e.Insert(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !l.Equal(want.MustLabel(evs[i].V)) {
			t.Fatalf("event %d (vertex %d) mislabeled with vertex %d moved to %d", i, ev.V, moved, far)
		}
	}
	if e.LabelCount() != len(evs) {
		t.Fatalf("LabelCount %d after %d events", e.LabelCount(), len(evs))
	}
	if l, ok := e.Label(far); !ok || !l.Equal(want.MustLabel(moved)) {
		t.Fatalf("Label(%d) = %v, %v", far, l, ok)
	}
	for _, v := range []graph.VertexID{-1, -1 << 31, moved, far + 1, far - 1, 1<<31 - 1} {
		if l, ok := e.Label(v); ok {
			t.Fatalf("Label(%d) = %v for a vertex never inserted", v, l)
		}
	}
}
