package api

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/wal"
)

// FuzzFrameReader throws arbitrary byte streams at the binary ingest
// decoder. The invariants: it never panics, reports damage only as
// CodeBadFrame, never accepts a frame past the payload cap, and every
// accepted frame's raw bytes are exactly the input bytes it consumed
// (so a server teeing accepted frames to its WAL writes precisely
// what arrived on the wire). The records of an accepted frame re-frame
// to exactly its bytes — a run of compact records as one batch frame,
// a classic record alone, never sharing its frame.
func FuzzFrameReader(f *testing.F) {
	g, v := int32(1), int32(2)
	seed, _ := AppendFrame(nil, Event{V: 0, Graph: &g, Vertex: &v})
	seed, _ = AppendFrame(seed, Event{V: 1, Name: "blast", Preds: []int32{0}})
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // truncated payload
	f.Add(seed[:5])           // truncated header

	crc := append([]byte(nil), seed...)
	crc[len(crc)-1] ^= 1 // CRC mismatch
	f.Add(crc)

	huge := make([]byte, FrameHeaderSize)
	binary.LittleEndian.PutUint32(huge, MaxFramePayload+7) // oversized length
	f.Add(huge)
	f.Add([]byte{})

	// A classic-kind frame — what earlier builds logged and an older SDK
	// sends — ahead of compact ones.
	classic := []byte{0x01, 0x01, 0x00, 0x01, 0x01, 0x00} // vertex 1, graph 0, spec vertex 1, predecessor 0
	mixed := binary.LittleEndian.AppendUint32(nil, uint32(len(classic)))
	mixed = binary.LittleEndian.AppendUint32(mixed, crc32.ChecksumIEEE(classic))
	f.Add(append(append(mixed, classic...), seed...))

	// Batch frames: a run of records, one cut short, and a classic
	// record sharing a frame with a compact one (CRCs fixed).
	batch, _ := AppendFrames(nil, []Event{{V: 0, Graph: &g, Vertex: &v}, {V: 1, Name: "blast", Preds: []int32{0}}, {V: 2, Graph: &g, Vertex: &v, Preds: []int32{0, 1}}})
	f.Add(slices.Concat(batch, seed))
	f.Add(reframed(batch[FrameHeaderSize : len(batch)-1]))
	f.Add(reframed(slices.Concat(classic, batch[FrameHeaderSize:])))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		consumed := 0
		var cur []byte        // the frame the records below came in
		var recs []wal.Record // its records so far; never released
		for {
			rec, frame, err := fr.Next()
			if frame != nil || err != nil {
				checkReframes(t, cur, recs)
				cur, recs = nil, recs[:0]
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				var ae *Error
				if !errors.As(err, &ae) || ae.Code != CodeBadFrame {
					t.Fatalf("non-structured decode error: %v", err)
				}
				break
			}
			if frame != nil {
				if len(frame) > FrameHeaderSize+MaxFramePayload {
					t.Fatalf("frame of %d bytes exceeds the cap", len(frame))
				}
				if !bytes.Equal(frame, data[consumed:consumed+len(frame)]) {
					t.Fatal("returned frame bytes differ from the consumed input")
				}
				consumed += len(frame)
				cur = slices.Clone(frame)
			} else if cur == nil {
				t.Fatal("a record opens no frame")
			}
			recs = append(recs, rec)
		}
	})
}

// reframed is payload with a frame header whose CRC matches.
func reframed(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// checkReframes asserts recs, the records of frame, re-frame to exactly
// its bytes: a classic record alone, compact ones as one batch frame.
func checkReframes(t *testing.T, frame []byte, recs []wal.Record) {
	t.Helper()
	if frame == nil {
		return
	}
	if kind := frame[FrameHeaderSize]; kind == 0x01 || kind == 0x02 {
		if len(recs) != 1 {
			t.Fatalf("a classic record shares its frame with %d others", len(recs)-1)
		}
		// It must survive the WAL append path the server re-frames a
		// refused frame's prefix through.
		if _, err := wal.AppendFrame(nil, recs[0]); err != nil {
			t.Fatalf("accepted record rejected by the WAL encoder: %v", err)
		}
		return
	}
	var back []byte
	open := -1
	for _, rec := range recs {
		var err error
		if back, open, err = wal.AppendRecord(back, open, rec); err != nil {
			t.Fatalf("accepted record rejected by the WAL encoder: %v", err)
		}
	}
	if !bytes.Equal(back, frame) {
		t.Fatalf("%d records re-frame to %x, came in %x", len(recs), back, frame)
	}
}

// FuzzDecodeReachRequest throws arbitrary bytes at the binary
// batch-reach request decoder, and the same bytes read as raw pairs at
// the encoder. The invariants: it never panics; a refused body leaves
// the caller's pairs as they were; an accepted one holds no more pairs
// than the cap or than its bytes can carry, and encodes back to a body
// that decodes to the same pairs; and whatever pairs the bytes spell,
// decode(encode(pairs)) is those pairs.
func FuzzDecodeReachRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte{})
	for _, n := range []int{0, 1, 63, 64, 65} {
		pairs, _ := randomAnswers(rng, n)
		f.Add(AppendReachRequest(nil, pairs))
	}
	f.Add(uvarints(1 << 62))                                                                 // forged count
	f.Add(append(uvarints(1), binary.AppendVarint(nil, 1<<40)...))                           // id past int32
	f.Add(append(uvarints(2, 0, 0, 0), 0x80))                                                // truncated varint
	f.Add(uvarints(1, 2, 4, 0))                                                              // trailing byte
	f.Add(append(uvarints(MaxReachPairs+1), make([]byte, 2*(MaxReachPairs+1))...))           // over the cap
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 7), 1<<63)) // as raw pairs

	f.Fuzz(func(t *testing.T, data []byte) {
		kept := []ReachPair{{From: -5, To: 5}}
		got, err := DecodeReachRequestInto(kept, data)
		if len(got) < 1 || got[0] != (ReachPair{From: -5, To: 5}) || (err != nil && len(got) != 1) {
			t.Fatalf("caller's pairs came back as %v (error %v)", got, err)
		}
		if err == nil {
			pairs := got[1:]
			if len(pairs) > MaxReachPairs || 2*len(pairs) > len(data) {
				t.Fatalf("%d pairs out of %d bytes", len(pairs), len(data))
			}
			again, err := DecodeReachRequestInto(nil, AppendReachRequest(nil, pairs))
			if err != nil || !slices.Equal(again, pairs) {
				t.Fatalf("accepted pairs do not survive a round trip: %v", err)
			}
		}

		var pairs []ReachPair
		for b := data; len(b) >= 8 && len(pairs) < MaxReachPairs; b = b[8:] {
			pairs = append(pairs, ReachPair{From: int32(binary.LittleEndian.Uint32(b)), To: int32(binary.LittleEndian.Uint32(b[4:]))})
		}
		back, err := DecodeReachRequestInto(nil, AppendReachRequest(nil, pairs))
		if err != nil || !slices.Equal(back, pairs) {
			t.Fatalf("decode(encode(%v)) = %v, %v", pairs, back, err)
		}
	})
}

// FuzzDecodeReachResponse does the same for the response decoder — the
// client's side — against a request for n pairs. A refused body leaves
// the caller's answers as they were; an accepted one yields exactly n
// answers, echoing the pairs, no failed pair marked reachable, that
// survive being split back into bitmap and failures, encoded and
// decoded. And answers built from the bytes survive encode → decode.
func FuzzDecodeReachResponse(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add([]byte{}, uint16(0))
	for _, n := range []int{0, 1, 63, 64, 65} {
		var failAt []int
		if n > 0 {
			failAt = []int{0, n - 1}
		}
		_, answers := randomAnswers(rng, n, failAt...)
		bits, fails := reachParts(answers)
		f.Add(AppendReachResponse(nil, n, bits, fails), uint16(n))
	}
	f.Add([]byte{10, 0xff, 0x07, 0}, uint16(10))               // padding bits set
	f.Add([]byte{10, 0, 0, 1, 10, 1, 'c', 0}, uint16(10))      // failure index = n
	f.Add(append([]byte{3, 0}, uvarints(1<<40)...), uint16(3)) // forged failure count
	f.Add([]byte{2, 0, 0, 0}, uint16(2))                       // trailing byte

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		pairs := make([]ReachPair, int(n)%(MaxReachPairs+2))
		for i := range pairs {
			pairs[i] = ReachPair{From: int32(i), To: -int32(i)}
		}
		kept := []ReachAnswer{{From: 9, Code: "kept"}}
		got, err := DecodeReachResponseInto(kept, pairs, data)
		if len(got) < 1 || got[0] != (ReachAnswer{From: 9, Code: "kept"}) || (err != nil && len(got) != 1) {
			t.Fatalf("caller's answers came back as %+v (error %v)", got, err)
		}
		if err == nil {
			answers := got[1:]
			if len(answers) != len(pairs) {
				t.Fatalf("%d answers for %d pairs", len(answers), len(pairs))
			}
			for i, a := range answers {
				if a.From != pairs[i].From || a.To != pairs[i].To || (a.Code != "" && a.Reachable) {
					t.Fatalf("answer %d = %+v for pair %+v", i, a, pairs[i])
				}
			}
			bits, fails := reachParts(answers)
			again, err := DecodeReachResponseInto(nil, pairs, AppendReachResponse(nil, len(pairs), bits, fails))
			if err != nil || !slices.Equal(again, answers) {
				t.Fatalf("accepted answers do not survive a round trip: %v", err)
			}
		}

		// The bytes as answers: two bits each, one in four a failure whose
		// code and message are cut from the bytes themselves.
		answers := make([]ReachAnswer, len(pairs))
		for i, p := range pairs {
			answers[i] = ReachAnswer{From: p.From, To: p.To}
			if len(data) == 0 {
				continue
			}
			switch c := data[i%len(data)] >> (i % 4 * 2) & 3; c {
			case 1:
				answers[i].Reachable = true
			case 3:
				answers[i].Code = ErrorCode("c" + string(data[:i%len(data)]))
				answers[i].Error = string(data[i%len(data):])
			}
		}
		bits, fails := reachParts(answers)
		back, err := DecodeReachResponseInto(nil, pairs, AppendReachResponse(nil, len(pairs), bits, fails))
		if err != nil || !slices.Equal(back, answers) {
			t.Fatalf("decode(encode(answers)) differs: %v", err)
		}
	})
}
