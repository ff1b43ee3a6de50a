package wal

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

// classicPayload is the reference writer of the classic record kinds
// earlier builds wrote, which the decoder still reads: a bare kind byte,
// the event's fields, an explicit predecessor count and every
// predecessor id in full, all as uvarints.
func classicPayload(rec Record) []byte {
	v, preds := rec.Ref.V, rec.Ref.Preds
	b := []byte{kindRefClassic}
	if rec.Named {
		v, preds = rec.NamedEv.V, rec.NamedEv.Preds
		b[0] = kindNamedClassic
	}
	b = binary.AppendUvarint(b, uint64(v))
	if rec.Named {
		b = binary.AppendUvarint(b, uint64(len(rec.NamedEv.Name)))
		b = append(b, rec.NamedEv.Name...)
	} else {
		b = binary.AppendUvarint(b, uint64(rec.Ref.Ref.Graph))
		b = binary.AppendUvarint(b, uint64(rec.Ref.Ref.V))
	}
	b = binary.AppendUvarint(b, uint64(len(preds)))
	for _, p := range preds {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return b
}

// refPayload builds a classic reference-form payload from raw uvarint
// fields, so a test can put values in them no Record can hold.
func refPayload(v, g, sv uint64, preds ...uint64) []byte {
	b := []byte{kindRefClassic}
	for _, f := range append([]uint64{v, g, sv, uint64(len(preds))}, preds...) {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// compactPayload is refPayload for the compact reference kind; each of
// zpreds is a predecessor's raw zig-zag delta.
func compactPayload(v, g, sv uint64, zpreds ...uint64) []byte {
	n := len(zpreds)
	b := []byte{byte(min(n, countEscape))<<countShift | kindRef}
	if n >= countEscape {
		b = binary.AppendUvarint(b, uint64(n-countEscape))
	}
	for _, f := range append([]uint64{v, g, sv}, zpreds...) {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// manyPreds is a record with n predecessors, on both sides of v.
func manyPreds(n int) Record {
	ev := run.Event{V: 1000, Ref: spec.VertexRef{Graph: 2, V: 5}}
	for i := range n {
		ev.Preds = append(ev.Preds, graph.VertexID(990+i))
	}
	return RefRecord(ev)
}

// TestDecodeRecordRefusesIDsPastInt32 is the decoder's range table: an
// id field — run vertex, graph, spec vertex, predecessor — holds what an
// int32 holds and nothing more. A wider graph id used to be truncated
// (2³²+3 read back as graph 3, 2⁶³ as graph 0): the frame was accepted,
// labeled as an event of the wrong graph and teed verbatim into the
// hash-chained log, while re-framing the decoded record gave different
// bytes — one event, two histories. The compact kinds carry a
// predecessor as a delta from the vertex, so there the range is checked
// on the id the delta lands on.
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
		{"compact: all fields at the top, predecessor at 0", compactPayload(top, top, top, 2*top), true},
		{"compact: vertex 0, predecessor at the top", compactPayload(0, 0, 0, 2*top-1), true},
		{"compact: graph 2^31", compactPayload(1, 1<<31, 0), false},
		{"compact: vertex 2^31", compactPayload(1<<31, 0, 0), false},
		{"compact: predecessor -3", compactPayload(7, 0, 0, 2*10), false},
		{"compact: predecessor 2^31", compactPayload(0, 0, 0, 2*(1<<31)-1), false},
		{"compact: delta past 2^32", compactPayload(top, 0, 0, 1<<33), false},
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
		checkReframes(t, tc.name, rec, tc.payload)
	}
	// The writer's half: a negative graph id would frame as a 10-byte
	// varint the reader now refuses, so it is refused here first.
	if _, err := AppendFrame(nil, RefRecord(run.Event{V: 1, Ref: spec.VertexRef{Graph: -1}})); err == nil {
		t.Fatal("AppendFrame accepted a negative graph id")
	}
}

// checkReframes asserts the re-framing invariant for a record decoded
// from payload: a compact payload is exactly what AppendFrame writes for
// the record, a classic one exactly what the classic writer wrote, and
// in both cases the compact frame decodes to the same record.
func checkReframes(t *testing.T, name string, rec Record, payload []byte) {
	t.Helper()
	frame, err := AppendFrame(nil, rec)
	if err != nil {
		t.Fatalf("%s: decoded %+v does not re-frame: %v", name, rec, err)
	}
	compact := frame[FrameHeaderSize:]
	if payload[0] == kindRefClassic || payload[0] == kindNamedClassic {
		if want := classicPayload(rec); !slices.Equal(payload, want) {
			t.Fatalf("%s: classic payload %x decodes to %+v, which the classic writer frames as %x", name, payload, rec, want)
		}
		back, err := DecodeRecord(compact)
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("%s: classic %+v re-frames to compact %x, which decodes to %+v, %v", name, rec, compact, back, err)
		}
		return
	}
	if !slices.Equal(compact, payload) {
		t.Fatalf("%s: decoded %+v re-frames to %x, came from %x", name, rec, compact, payload)
	}
}

// TestDecodeRecordRefusesNonCanonicalBytes is the varint and end-of-
// record table: every field of either kind is minimal LEB128 of at most
// five bytes, and the payload ends where the record does. The first two
// rows used to decode — as vertex 1, with the frame re-framing to other
// bytes — so a binary body carrying them was acked and teed verbatim
// while the JSON route framed the same event differently.
func TestDecodeRecordRefusesNonCanonicalBytes(t *testing.T) {
	named := NamedRecord(core.NamedEvent{V: 9, Name: "align", Preds: []graph.VertexID{3, 8}})
	namedFrame, err := AppendFrame(nil, named)
	if err != nil {
		t.Fatal(err)
	}
	namedCompact := namedFrame[FrameHeaderSize:]
	escaped, err := AppendFrame(nil, manyPreds(countEscape))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"classic: overlong vertex", []byte{0x01, 0x81, 0x00, 0x00, 0x00, 0x00}},
		{"classic: trailing bytes", []byte{0x01, 0x01, 0x00, 0x00, 0x00, 0xAA, 0xBB}},
		{"classic: overlong zero", []byte{0x01, 0x01, 0x80, 0x00, 0x00, 0x00}},
		{"classic: overlong predecessor", []byte{0x01, 0x05, 0x00, 0x00, 0x01, 0x83, 0x00}},
		{"classic: overlong count", []byte{0x01, 0x05, 0x00, 0x00, 0x80, 0x00}},
		{"classic: six-byte varint", []byte{0x01, 0x81, 0x80, 0x80, 0x80, 0x80, 0x00, 0x00, 0x00, 0x00}},
		{"classic named: overlong name length", append([]byte{0x02, 0x09, 0x85, 0x00}, "align\x00"...)},
		{"classic named: trailing byte", append(classicPayload(named), 0)},
		{"compact: overlong vertex", []byte{0x03, 0x81, 0x00, 0x00, 0x00}},
		{"compact: trailing byte", append(compactPayload(1, 0, 0, 2), 0)},
		{"compact: overlong delta", []byte{0x0B, 0x05, 0x00, 0x00, 0x82, 0x00}},
		{"compact: truncated delta", []byte{0x0B, 0x05, 0x00, 0x00, 0x82}},
		{"compact: count past the payload", []byte{0x1B, 0x05, 0x00, 0x00, 0x02}},
		{"compact: overlong count escape", append([]byte{escaped[FrameHeaderSize], 0x80, 0x00}, escaped[FrameHeaderSize+2:]...)},
		{"compact: escaped count past the payload", append([]byte{escaped[FrameHeaderSize], 0x7f}, escaped[FrameHeaderSize+2:]...)},
		{"compact named: trailing byte", append(slices.Clone(namedCompact), 0)},
		{"compact named: name past the payload", []byte{0x04, 0x01, 0x09, 'x'}},
		{"unknown kind 0x00", []byte{0x00, 0x01, 0x00, 0x00, 0x00}},
		{"unknown kind 0x05", []byte{0x05, 0x01, 0x00, 0x00}},
		{"classic kind with a count", []byte{0x09, 0x01, 0x00, 0x00, 0x02}},
		{"classic named kind with a count", []byte{0x0A, 0x01, 0x00, 0x02}},
		{"empty", []byte{}},
	} {
		arena := []graph.VertexID{7}
		if rec, err := DecodeRecordInto(&arena, tc.payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %x decoded to %+v, %v; want ErrCorrupt", tc.name, tc.payload, rec, err)
		}
		if !slices.Equal(arena, []graph.VertexID{7}) {
			t.Errorf("%s: refused record left %v in the arena", tc.name, arena)
		}
	}
	// The canonical forms of the same shapes decode, and re-frame.
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"classic: vertex 1", []byte{0x01, 0x01, 0x00, 0x00, 0x00}},
		{"classic named", classicPayload(named)},
		{"compact named", namedCompact},
		{"compact: escaped count", escaped[FrameHeaderSize:]},
		{"compact: predecessor above the vertex", compactPayload(5, 0, 0, 1)},
	} {
		rec, err := DecodeRecord(tc.payload)
		if err != nil {
			t.Fatalf("%s: %x: %v", tc.name, tc.payload, err)
		}
		checkReframes(t, tc.name, rec, tc.payload)
	}
}

// TestCompactKindByte pins the compact layout on one record of each
// count class: the count rides in the kind byte up to 30, 31 and above
// is the escape plus uvarint(count − 31), and a predecessor just below
// the vertex costs one byte.
func TestCompactKindByte(t *testing.T) {
	for _, tc := range []struct {
		preds int
		head  []byte // kind byte and escape
	}{
		{0, []byte{0x03}},
		{1, []byte{0x0B}},
		{30, []byte{0xF3}},
		{31, []byte{0xFB, 0x00}},
		{32, []byte{0xFB, 0x01}},
		{131, []byte{0xFB, 0x64}},
		{158, []byte{0xFB, 0x7F}},
		{159, []byte{0xFB, 0x80, 0x01}},
	} {
		rec := manyPreds(tc.preds)
		frame, err := AppendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[FrameHeaderSize:]
		if !slices.Equal(payload[:len(tc.head)], tc.head) {
			t.Fatalf("%d preds: payload starts %x, want %x", tc.preds, payload[:len(tc.head)], tc.head)
		}
		fields := len(tc.head) + 2 + 1 + 1 // v 1000, graph 2, spec vertex 5
		// The deltas 10, 9, …, 1, 0, −1, … zig-zag to 20, 18, …, 2, 0, 1,
		// 3, …: one byte each while below 128.
		if want := fields + tc.preds + max(0, tc.preds-75); len(payload) != want {
			t.Fatalf("%d preds: %d payload bytes, want %d", tc.preds, len(payload), want)
		}
		back, err := DecodeRecord(payload)
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("%d preds: decodes to %+v, %v", tc.preds, back, err)
		}
	}
}

// FuzzDecodeRecordInto: on arbitrary payloads the arena-taking decode
// accepts exactly what DecodeRecord accepts and yields an equal record,
// never panics, appends exactly the record's predecessors after what
// the arena held, and leaves the arena alone when it refuses. A record
// that decodes re-frames by the invariant checkReframes states: a
// compact payload to exactly its bytes, a classic one to the compact
// frame of the same record.
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
	f.Add([]byte{kindNamedClassic, 1, 200, 'x'})
	f.Add([]byte{})
	for _, rec := range append(testRecords(), manyPreds(30), manyPreds(31), manyPreds(32), manyPreds(131)) {
		f.Add(classicPayload(rec))
	}
	for _, n := range []int{30, 31, 32, 131} {
		frame, err := AppendFrame(nil, manyPreds(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[FrameHeaderSize:])
	}
	f.Add(compactPayload(5, 0, 0, 1))                       // predecessor above the vertex
	f.Add(compactPayload(1<<31-1, 0, 0, 2*(1<<31-1), 0))    // predecessors at 0 and the top
	f.Add([]byte{0x01, 0x81, 0x00, 0x00, 0x00, 0x00})       // overlong vertex
	f.Add([]byte{0x01, 0x01, 0x00, 0x00, 0x00, 0xAA, 0xBB}) // trailing bytes
	f.Add([]byte{0xFB, 0x80, 0x00, 0x05, 0x00, 0x00, 0x02}) // overlong count escape
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
		checkReframes(t, "fuzz", got, payload)
	})
}
