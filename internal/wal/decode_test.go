package wal

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

// refPayload builds a reference-form payload from raw uvarint fields,
// so a test can put values in them no Record can hold.
func refPayload(v, g, sv uint64, preds ...uint64) []byte {
	b := []byte{kindRef}
	for _, f := range append([]uint64{v, g, sv, uint64(len(preds))}, preds...) {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// TestDecodeRecordRefusesIDsPastInt32 is the decoder's range table: an
// id field — run vertex, graph, spec vertex, predecessor — holds what an
// int32 holds and nothing more. A wider graph id used to be truncated
// (2³²+3 read back as graph 3, 2⁶³ as graph 0): the frame was accepted,
// labeled as an event of the wrong graph and teed verbatim into the
// hash-chained log, while re-framing the decoded record gave different
// bytes — one event, two histories.
func TestDecodeRecordRefusesIDsPastInt32(t *testing.T) {
	const top = 1<<31 - 1
	for _, tc := range []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"all fields at the top of the range", refPayload(top, top, top, top), true},
		{"graph 2^31", refPayload(1, 1<<31, 0), false},
		{"graph 2^32+3", refPayload(1, 1<<32+3, 0), false},
		{"graph 2^63", refPayload(1, 1<<63, 0), false},
		{"vertex 2^31", refPayload(1<<31, 0, 0), false},
		{"spec vertex 2^32+3", refPayload(1, 0, 1<<32+3), false},
		{"predecessor 2^63", refPayload(1, 0, 0, 5, 1<<63), false},
	} {
		arena := []graph.VertexID{7}
		rec, err := DecodeRecordInto(&arena, tc.payload)
		if _, err2 := DecodeRecord(tc.payload); (err == nil) != (err2 == nil) {
			t.Fatalf("%s: arena decode says %v, plain decode %v", tc.name, err, err2)
		}
		if !tc.ok {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: decoded to %+v, %v; want ErrCorrupt", tc.name, rec, err)
			}
			if !slices.Equal(arena, []graph.VertexID{7}) {
				t.Fatalf("%s: refused record left %v in the arena", tc.name, arena)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// What decodes re-frames to the bytes it came from.
		frame, err := AppendFrame(nil, rec)
		if err != nil || !slices.Equal(frame[FrameHeaderSize:], tc.payload) {
			t.Fatalf("%s: decoded %+v re-frames to %x (%v), came from %x", tc.name, rec, frame[FrameHeaderSize:], err, tc.payload)
		}
	}
	// The writer's half: a negative graph id would frame as a 10-byte
	// varint the reader now refuses, so it is refused here first.
	if _, err := AppendFrame(nil, RefRecord(run.Event{V: 1, Ref: spec.VertexRef{Graph: -1}})); err == nil {
		t.Fatal("AppendFrame accepted a negative graph id")
	}
}

// FuzzDecodeRecordInto: on arbitrary payloads the arena-taking decode
// accepts exactly what DecodeRecord accepts and yields an equal record,
// never panics, appends exactly the record's predecessors after what
// the arena held, and leaves the arena alone when it refuses.
func FuzzDecodeRecordInto(f *testing.F) {
	for _, rec := range testRecords() {
		frame, err := AppendFrame(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[FrameHeaderSize:])
		f.Add(frame[FrameHeaderSize : len(frame)-1])
	}
	f.Add(refPayload(1, 1<<32+3, 0))
	f.Add(refPayload(1, 0, 0, 1<<40))
	f.Add([]byte{kindNamed, 1, 200, 'x'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		held := []graph.VertexID{11, 12, 13}
		arena := append(make([]graph.VertexID, 0, rand.Intn(8)+3), held...)
		want, wantErr := DecodeRecord(payload)
		got, err := DecodeRecordInto(&arena, payload)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("arena decode: %v, plain decode: %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !slices.Equal(arena, held) {
				t.Fatalf("refusal %v left arena %v", err, arena)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("arena decode %+v, plain decode %+v", got, want)
		}
		preds := got.Ref.Preds
		if got.Named {
			preds = got.NamedEv.Preds
		}
		if !slices.Equal(arena[:3], held) || !slices.Equal(arena[3:], preds) {
			t.Fatalf("arena %v after a record with predecessors %v", arena, preds)
		}
		if _, err := AppendFrame(nil, got); err != nil {
			t.Fatalf("decoded record does not re-frame: %v", err)
		}
	})
}
