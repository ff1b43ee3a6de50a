package api

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach/internal/wal"
)

// randomEvents generates a mix of ref- and name-form wire events.
func randomEvents(rng *rand.Rand, n int) []Event {
	out := make([]Event, n)
	for i := range out {
		var preds []int32
		for p := 0; p < rng.Intn(4); p++ {
			preds = append(preds, rng.Int31n(int32(i+1)))
		}
		if rng.Intn(2) == 0 {
			g, v := rng.Int31n(8), rng.Int31n(16)
			out[i] = Event{V: int32(i), Graph: &g, Vertex: &v, Preds: preds}
		} else {
			names := []string{"a", "align", "blast", "merge-0", "長"}
			out[i] = Event{V: int32(i), Name: names[rng.Intn(len(names))], Preds: preds}
		}
	}
	return out
}

// TestFrameEncodeMatchesWALBytes is the round-trip property test the
// tee depends on: encoding a batch of events with AppendFrames yields
// byte-for-byte the file a write-ahead log holds for the same records
// framed as one batch by wal.AppendRecord, and AppendFrame of one event
// what wal.AppendFrame gives its record.
func TestFrameEncodeMatchesWALBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	events := randomEvents(rng, 500)

	wire, err := AppendFrames(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.wal")
	log, err := wal.Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var batch []byte
	open := -1
	for _, ev := range events {
		rec, err := ev.Record()
		if err != nil {
			t.Fatal(err)
		}
		if batch, open, err = wal.AppendRecord(batch, open, rec); err != nil {
			t.Fatal(err)
		}
		one, err := AppendFrame(nil, ev)
		if err != nil {
			t.Fatalf("AppendFrame(%+v): %v", ev, err)
		}
		if walOne, _ := wal.AppendFrame(nil, rec); !bytes.Equal(one, walOne) {
			t.Fatalf("AppendFrame(%+v) = %x, wal.AppendFrame %x", ev, one, walOne)
		}
	}
	if open != 0 {
		t.Fatalf("a %d-byte batch split into frames", len(batch))
	}
	if err := log.AppendRaw(batch); err != nil {
		t.Fatal(err)
	}
	if got := log.AppendSeq(); got != int64(len(events)) {
		t.Fatalf("one frame of %d records advanced the sequence to %d", len(events), got)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, disk) {
		t.Fatalf("wire stream (%d bytes) differs from WAL file (%d bytes)", len(wire), len(disk))
	}

	// And AppendRaw of the wire frames reproduces the same file again.
	path2 := filepath.Join(t.TempDir(), "raw.wal")
	log2, err := wal.Open(path2, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	for {
		_, frame, err := fr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if frame == nil {
			continue // a further record of the frame just teed
		}
		if err := log2.AppendRaw(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	disk2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, disk2) {
		t.Fatal("AppendRaw of wire frames diverges from the batch framed record by record")
	}
}

func TestDecodeFramesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 200)
	var wire []byte
	var err error
	for _, ev := range events {
		if wire, err = AppendFrame(wire, ev); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	var back []Event
	for {
		rec, _, err := fr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, fromRecord(rec))
		fr.Release()
	}
	if len(back) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i].V != events[i].V || back[i].Name != events[i].Name || len(back[i].Preds) != len(events[i].Preds) {
			t.Fatalf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func oneFrame(t *testing.T, ev Event) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestFrameReaderRejectsDamage(t *testing.T) {
	frame := oneFrame(t, Event{V: 3, Name: "x", Preds: []int32{1}})

	expectBadFrame := func(name string, b []byte) {
		t.Helper()
		_, _, err := NewFrameReader(bytes.NewReader(b)).Next()
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeBadFrame {
			t.Fatalf("%s: err = %v, want CodeBadFrame", name, err)
		}
	}

	expectBadFrame("truncated header", frame[:5])
	expectBadFrame("truncated payload", frame[:len(frame)-2])

	crcFlipped := append([]byte(nil), frame...)
	crcFlipped[len(crcFlipped)-1] ^= 0xff
	expectBadFrame("payload corruption", crcFlipped)

	headerFlipped := append([]byte(nil), frame...)
	headerFlipped[4] ^= 0xff
	expectBadFrame("CRC corruption", headerFlipped)

	oversized := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(oversized[0:4], MaxFramePayload+1)
	expectBadFrame("oversized length", oversized)

	zeroLen := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(zeroLen[0:4], 0)
	expectBadFrame("zero length", zeroLen)

	// Clean EOF mid-stream boundary: a full frame then nothing.
	fr := NewFrameReader(bytes.NewReader(frame))
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameReaderReusesBuffer documents the aliasing contract: the
// returned frame slice is only valid until the next call.
func TestFrameReaderReusesBuffer(t *testing.T) {
	a := oneFrame(t, Event{V: 1, Name: "aaaa"})
	b := oneFrame(t, Event{V: 2, Name: "bbbb"})
	fr := NewFrameReader(bytes.NewReader(append(append([]byte(nil), a...), b...)))
	_, f1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), f1...)
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keep, a) {
		t.Fatal("copied frame changed")
	}
}

func TestAppendFrameRejectsMalformedEvent(t *testing.T) {
	_, err := AppendFrame(nil, Event{V: 1})
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeBadEvent {
		t.Fatalf("err = %v, want CodeBadEvent", err)
	}
}

// TestFrameLenIsExact pins the length pass AppendFrames reserves with:
// for ref- and name-form events with no, one and many predecessors —
// counts on both sides of the kind byte's escape — predecessors below,
// at and above the vertex, and ids on both sides of each varint
// boundary up to the largest an event carries, it is exactly what
// AppendFrame appends.
func TestFrameLenIsExact(t *testing.T) {
	const maxID = 1<<31 - 1
	spread := func(n int, v int32) []int32 { // deltas of both signs and several widths
		preds := make([]int32, n)
		for i := range preds {
			preds[i] = int32(max(0, min(maxID, int64(v)+int64(i*97)-int64(n*40))))
		}
		return preds
	}
	for _, id := range []int32{0, 1, 127, 128, 1 << 20, maxID} {
		for _, preds := range [][]int32{
			nil, {id},
			{min(id, maxID-1) + 1},                 // above the vertex
			{0, maxID},                             // both ends, on both sides of id
			{0, 127, 128, 16383, 16384, maxID, id}, // each varint boundary
			spread(30, id), spread(31, id), spread(32, id), spread(131, id), spread(300, id),
		} {
			g, sv := id, id
			for _, ev := range []Event{
				{V: id, Graph: &g, Vertex: &sv, Preds: preds},
				{V: id, Name: "x", Preds: preds},
				{V: id, Name: strings.Repeat("長", 43), Preds: preds}, // 129 bytes: a two-byte length
			} {
				if got, want := frameLen(ev), len(oneFrame(t, ev)); got != want {
					t.Errorf("frameLen(v %d, name %q, %d preds) = %d, AppendFrame writes %d", ev.V, ev.Name, len(ev.Preds), got, want)
				}
			}
		}
	}
}

// TestFrameReaderAllocs pins the framing layer on the binary ingest
// route: past the reader's warm-up, Next allocates nothing — a
// record's predecessors land in the reader's arena, which each pass
// releases the way the handler releases each batch.
func TestFrameReaderAllocs(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want float64
	}{
		{refEvent(0, 0, 0), 0},
		{refEvent(5, 1, 2, 3, 4), 0},
	} {
		const frames = 64
		var body []byte
		for i := 0; i < frames; i++ {
			body = append(body, oneFrame(t, tc.ev)...)
		}
		src := bytes.NewReader(nil)
		fr := NewFrameReader(src)
		pass := func() {
			src.Reset(body)
			defer fr.Release()
			for {
				if _, _, err := fr.Next(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		pass() // warm-up
		if avg := testing.AllocsPerRun(20, pass) / frames; avg != tc.want {
			t.Errorf("event with %d preds: %.2f allocations per frame, want %.0f", len(tc.ev.Preds), avg, tc.want)
		}
	}
}

// TestTailReaderEndings: a tail stream ends cleanly only between
// entries; a cut anywhere inside one — in the sequence prefix, or in
// the frame after it — is CodeBadFrame, like a non-positive sequence.
func TestTailReaderEndings(t *testing.T) {
	frame := oneFrame(t, refEvent(7, 0, 1, 6))
	var stream []byte
	for seq := int64(1); seq <= 3; seq++ {
		stream = AppendTailEntry(stream, seq, frame)
	}
	entry := len(stream) / 3
	for cut := 0; cut <= len(stream); cut++ {
		tr := NewTailReader(bytes.NewReader(stream[:cut]))
		var err error
		n := 0
		for ; ; n++ {
			var e TailEntry
			if e, err = tr.Next(); err != nil {
				break
			}
			if e.Seq != int64(n+1) || !bytes.Equal(e.Frame, frame) {
				t.Fatalf("cut %d: entry %d = seq %d", cut, n, e.Seq)
			}
		}
		if n != cut/entry {
			t.Fatalf("cut %d: %d entries, want %d", cut, n, cut/entry)
		}
		var ae *Error
		switch {
		case cut%entry == 0 && err != io.EOF:
			t.Fatalf("cut %d between entries: %v, want io.EOF", cut, err)
		case cut%entry != 0 && (!errors.As(err, &ae) || ae.Code != CodeBadFrame):
			t.Fatalf("cut %d inside an entry: %v, want CodeBadFrame", cut, err)
		}
	}
	_, err := NewTailReader(bytes.NewReader(AppendTailEntry(nil, 0, frame))).Next()
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeBadFrame {
		t.Fatalf("sequence 0: %v, want CodeBadFrame", err)
	}
}

// TestAppendFramesRefusesMalformedBatches: a batch holding malformed
// events — two of them drove the length pass negative and panicked the
// reservation — is refused with its first malformed event's error and
// the caller's buffer as it was, wherever the bad events sit.
func TestAppendFramesRefusesMalformedBatches(t *testing.T) {
	g, v := int32(0), int32(1)
	good := Event{V: 2, Graph: &g, Vertex: &v}
	for name, events := range map[string][]Event{
		"two without a form":        {{V: 0}, {V: 1, Preds: []int32{0}}},
		"after a good event":        {good, {V: 0}, {V: 1}, {V: 3}},
		"name and graph, then none": {{V: 0, Name: "x", Graph: &g, Vertex: &v}, {V: 1}},
		"negative vertex":           {{V: -1, Graph: &g, Vertex: &v}, {V: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			var want error
			for _, ev := range events {
				if _, want = ev.Record(); want != nil {
					break
				}
			}
			buf := []byte("kept")
			out, err := AppendFrames(buf[:len(buf):len(buf)], events)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("error %v, want the first malformed event's: %v", err, want)
			}
			if string(out) != "kept" {
				t.Fatalf("buffer came back as %q", out)
			}
		})
	}
}
