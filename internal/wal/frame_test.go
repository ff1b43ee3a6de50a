package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
)

// frameStream frames the test records onto one buffer and returns it
// with the byte offset each frame ends at.
func frameStream(t *testing.T) (raw []byte, ends []int64) {
	t.Helper()
	for _, rec := range testRecords() {
		var err error
		if raw, err = AppendFrame(raw, rec); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int64(len(raw)))
	}
	return raw, ends
}

// drain reads frames until the reader stops and returns how many it
// yielded and what stopped it.
func drain(fr *FrameReader) (n int, err error) {
	for {
		if _, err = fr.Next(); err != nil {
			return n, err
		}
		n++
	}
}

// TestFrameReaderEndings is the reader's whole contract in one table:
// a stream cut at every byte ends cleanly (io.EOF) exactly on frame
// boundaries and in damage (ErrCorrupt) everywhere else, and in both
// cases Offset marks the end of the last whole frame.
func TestFrameReaderEndings(t *testing.T) {
	raw, ends := frameStream(t)
	for cut := 0; cut <= len(raw); cut++ {
		whole, boundary := 0, cut == 0
		for _, e := range ends {
			if e <= int64(cut) {
				whole++
				boundary = boundary || e == int64(cut)
			}
		}
		fr := NewFrameReader(bytes.NewReader(raw[:cut]))
		n, err := drain(fr)
		if n != whole {
			t.Fatalf("cut %d: %d frames, want %d", cut, n, whole)
		}
		if boundary && err != io.EOF {
			t.Fatalf("cut %d on a frame boundary: %v, want io.EOF", cut, err)
		}
		if !boundary && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d inside a frame: %v, want ErrCorrupt", cut, err)
		}
		want := int64(0)
		if whole > 0 {
			want = ends[whole-1]
		}
		if fr.Offset() != want {
			t.Fatalf("cut %d: Offset %d, want %d", cut, fr.Offset(), want)
		}
	}
}

// TestFrameReaderDamage: every way a whole frame can be wrong is
// ErrCorrupt with the offset left before it, and a source that fails
// is the source's error, not damage.
func TestFrameReaderDamage(t *testing.T) {
	raw, ends := frameStream(t)
	second := ends[0] // the second frame's first byte
	mutate := map[string]func(b []byte){
		"zero length":     func(b []byte) { binary.LittleEndian.PutUint32(b[second:], 0) },
		"oversize length": func(b []byte) { binary.LittleEndian.PutUint32(b[second:], MaxPayload+1) },
		"crc field":       func(b []byte) { b[second+4] ^= 0x01 },
		"payload byte":    func(b []byte) { b[second+FrameHeaderSize] ^= 0x01 },
	}
	for name, hurt := range mutate {
		b := append([]byte(nil), raw...)
		hurt(b)
		fr := NewFrameReader(bytes.NewReader(b))
		n, err := drain(fr)
		if n != 1 || !errors.Is(err, ErrCorrupt) || fr.Offset() != second {
			t.Errorf("%s: %d frames, offset %d, err %v", name, n, fr.Offset(), err)
		}
	}

	boom := errors.New("disk on fire")
	fr := NewFrameReader(io.MultiReader(bytes.NewReader(raw[:second+3]), iotest.ErrReader(boom)))
	if n, err := drain(fr); n != 1 || !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("failing source: %d frames, err %v", n, err)
	}
}

// TestFrameReaderAllocs pins the reader at zero allocations per frame
// once its buffer has grown — it sits under the binary ingest route.
func TestFrameReaderAllocs(t *testing.T) {
	raw, _ := frameStream(t)
	src := bytes.NewReader(nil)
	fr := NewFrameReader(src)
	pass := func() {
		src.Reset(raw)
		if _, err := drain(fr); err != io.EOF {
			t.Fatal(err)
		}
	}
	pass() // warm-up: grows the frame buffer
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("%.1f allocations per pass over %d frames, want 0", avg, len(testRecords()))
	}
}

// TestAppendFrameAcceptsOnlyWhatDecodes is the writer's half of the
// frame contract: over random records — ids drawn from both sides of
// zero and both ends of the int32 range — every record AppendFrame
// accepts reads back equal through FrameReader and decodeRecordInto, and
// the ones it refuses are exactly those carrying a negative vertex id.
// (A log must never hold a frame its own reader calls corrupt: restore
// would take it for a torn tail and drop everything after it.)
func TestAppendFrameAcceptsOnlyWhatDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	id := func() graph.VertexID {
		switch rng.Intn(8) {
		case 0:
			return graph.VertexID(-1 - rng.Int31n(1<<20))
		case 1:
			return graph.VertexID(1<<31 - 1 - rng.Int31n(3))
		}
		return graph.VertexID(rng.Int31n(1 << 16))
	}
	accepted, refused := 0, 0
	for i := 0; i < 5000; i++ {
		var rec Record
		var preds []graph.VertexID
		for range rng.Intn(4) {
			preds = append(preds, id())
		}
		negative := false
		if rng.Intn(2) == 0 {
			rec = Record{Named: true}
			rec.NamedEv.V, rec.NamedEv.Name, rec.NamedEv.Preds = id(), string(make([]byte, rng.Intn(5))), preds
			negative = rec.NamedEv.V < 0
		} else {
			rec.Ref.V, rec.Ref.Preds = id(), preds
			rec.Ref.Ref = spec.VertexRef{Graph: spec.GraphID(rng.Int31n(9)), V: id()}
			negative = rec.Ref.V < 0 || rec.Ref.Ref.V < 0
		}
		for _, p := range preds {
			negative = negative || p < 0
		}
		frame, err := AppendFrame(nil, rec)
		if (err != nil) != negative {
			t.Fatalf("AppendFrame(%+v) = %v; carries a negative id: %v", rec, err, negative)
		}
		if err != nil {
			if refused++; len(frame) != 0 {
				t.Fatalf("refused record left %d bytes in the buffer", len(frame))
			}
			continue
		}
		accepted++
		got, err := NewFrameReader(bytes.NewReader(frame)).Next()
		if err != nil {
			t.Fatalf("accepted frame of %+v does not read back: %v", rec, err)
		}
		back, err := decodeRecordInto(nil, got[FrameHeaderSize:])
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("accepted %+v, decoded %+v, %v", rec, back, err)
		}
	}
	if accepted < 1000 || refused < 1000 {
		t.Fatalf("generator is lopsided: %d accepted, %d refused", accepted, refused)
	}
}
