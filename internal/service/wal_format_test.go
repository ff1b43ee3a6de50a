package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/integrity/audit"
	"wfreach/internal/run"
	"wfreach/internal/wal"
)

// classicPayload is the reference writer of the record kind earlier
// builds logged, and an older SDK still sends: kind 0x01, the event's
// fields, an explicit predecessor count and every predecessor id in
// full, all as uvarints. The fields are raw so a test can put values in
// them no event can hold.
func classicPayload(v, g, sv uint64, preds []graph.VertexID) []byte {
	b := []byte{0x01}
	for _, f := range []uint64{v, g, sv, uint64(len(preds))} {
		b = binary.AppendUvarint(b, f)
	}
	for _, p := range preds {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return b
}

// classicFrame frames ev in the classic kind.
func classicFrame(ev run.Event) []byte {
	return framed(classicPayload(uint64(ev.V), uint64(ev.Ref.Graph), uint64(ev.Ref.V), ev.Preds))
}

// framed puts the frame header — length and CRC — on a payload.
func framed(payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}

// refuseForgedFrame holds the binary route to its bad-frame contract on
// a fresh durable BioAID session: a body of prefix intact frames, the
// frame forge makes of the next event, and more intact frames is a 400
// bad_frame with applied = prefix, and the session and its log hold the
// prefix and nothing else.
func refuseForgedFrame(t *testing.T, prefix int, forge func(ev run.Event) []byte) {
	t.Helper()
	reg, dir, srv := newDurableTestServer(t)
	g := compileBuiltin(t, "BioAID")
	if _, err := reg.Create("forged", g, Config{}); err != nil {
		t.Fatal(err)
	}
	events, _ := genEvents(t, g, 200, 5)
	body := append(frameStream(t, events[:prefix]), forge(events[prefix])...)
	body = append(body, frameStream(t, events[prefix+1:prefix+11])...)
	code, raw := postBinary(t, srv.URL+"/v1/sessions/forged/events", body, nil)
	expectCode(t, 400, api.CodeBadFrame, code, raw)
	var resp api.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Applied != prefix {
		t.Fatalf("applied = %s, want the %d intact frames before the forged one", raw, prefix)
	}
	s, _ := reg.Get("forged")
	if s.Vertices() != int64(prefix) {
		t.Fatalf("session holds %d vertices, want %d", s.Vertices(), prefix)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	logged, err := os.ReadFile(filepath.Join(dir, "forged", walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, frameStream(t, events[:prefix])) {
		t.Fatalf("the log holds %d bytes, want exactly the %d intact frames", len(logged), prefix)
	}
}

// overlongLast re-spells a payload's last varint with a needless zero
// byte: the same value, the same record, other bytes.
func overlongLast(payload []byte) []byte {
	out := bytes.Clone(payload)
	out[len(out)-1] |= 0x80
	return append(out, 0)
}

// TestHTTPBinaryIngestRefusesNonCanonicalFrames: a frame whose payload
// spells its record in bytes the writer would not — an overlong varint,
// bytes past the end of the record — in either kind used to be acked
// and teed verbatim while the JSON route logged the same event as other
// bytes: one event, two histories. It is a bad frame now.
func TestHTTPBinaryIngestRefusesNonCanonicalFrames(t *testing.T) {
	compact := func(ev run.Event) []byte {
		frame, err := wal.AppendFrame(nil, wal.RefRecord(ev))
		if err != nil {
			t.Fatal(err)
		}
		return frame[wal.FrameHeaderSize:]
	}
	classic := func(ev run.Event) []byte {
		return classicPayload(uint64(ev.V), uint64(ev.Ref.Graph), uint64(ev.Ref.V), ev.Preds)
	}
	for _, tc := range []struct {
		name  string
		forge func(ev run.Event) []byte
	}{
		{"classic, overlong varint", func(ev run.Event) []byte { return framed(overlongLast(classic(ev))) }},
		{"classic, trailing bytes", func(ev run.Event) []byte { return framed(append(classic(ev), 0xAA, 0xBB)) }},
		{"compact, overlong varint", func(ev run.Event) []byte { return framed(overlongLast(compact(ev))) }},
		{"compact, trailing byte", func(ev run.Event) []byte { return framed(append(compact(ev), 0)) }},
	} {
		t.Run(tc.name, func(t *testing.T) { refuseForgedFrame(t, 3, tc.forge) })
	}
}

// TestHTTPBinaryIngestMixesClassicAndCompactFrames: a body in which
// classic frames — what an older SDK sends — sit between compact ones is
// accepted whole and teed verbatim, so one log holds both kinds, byte
// for byte the body; a restore replays it to the answers of breadth-
// first search on the run.
func TestHTTPBinaryIngestMixesClassicAndCompactFrames(t *testing.T) {
	reg, dir, srv := newDurableTestServer(t)
	g := compileBuiltin(t, "BioAID")
	if _, err := reg.Create("mix", g, Config{}); err != nil {
		t.Fatal(err)
	}
	events, r := genEvents(t, g, 300, 8)
	var body []byte
	for i, ev := range events {
		if i%3 == 0 {
			body = append(body, classicFrame(ev)...)
		} else {
			body = append(body, frameStream(t, events[i:i+1])...)
		}
	}
	if code, raw := postBinary(t, srv.URL+"/v1/sessions/mix/events", body, nil); code != 200 {
		t.Fatalf("mixed body: %d %s", code, raw)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "mix")
	logged, err := os.ReadFile(filepath.Join(sdir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, body) {
		t.Fatalf("the log (%d bytes) is not the body (%d bytes)", len(logged), len(body))
	}
	// Without the snapshot, restore labels every event from the log.
	if err := os.Remove(filepath.Join(sdir, snapFile)); err != nil {
		t.Fatal(err)
	}
	reg2 := durableReg(t, dir, DurableOptions{})
	defer reg2.Close()
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s, _ := reg2.Get("mix")
	checkOracle(t, s, events, r, len(events))
}

// TestGoldenV1ContinuesInCompactRecords: a data directory an earlier
// build wrote — the golden fixture, whose log holds only classic
// records, one per frame — takes new events as compact records, one
// batch frame per batch. A copy cut to its first 150 records is
// restored and given the rest of the run in batches of 40. After a
// close and a second restore the log is the classic prefix then one
// compact frame per batch, its hash chain runs unbroken across the
// seam, the audit counts every record, the fixture's expectations still
// hold, and every pair with an appended vertex answers as a search over
// the events' predecessors does.
func TestGoldenV1ContinuesInCompactRecords(t *testing.T) {
	const cut = 150
	src := filepath.Join("testdata", "golden-v1", "golden")
	dir := t.TempDir()
	sdir := filepath.Join(dir, "golden")
	if err := os.Mkdir(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metaFile, specFile, snapFile} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	classic, err := os.ReadFile(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}
	var events []run.Event
	var ends []int
	fr := wal.NewFrameReader(bytes.NewReader(classic))
	for {
		frame, err := fr.Next()
		if err != nil {
			break
		}
		recs, err := wal.DecodePayload(nil, new([]graph.VertexID), frame[wal.FrameHeaderSize:])
		if err != nil || len(recs) != 1 || frame[wal.FrameHeaderSize] != 0x01 {
			t.Fatalf("fixture record %d: kind 0x%02x, %d records, %v", len(events), frame[wal.FrameHeaderSize], len(recs), err)
		}
		events = append(events, recs[0].Ref)
		ends = append(ends, int(fr.Offset()))
	}
	if len(events) <= cut || ends[len(ends)-1] != len(classic) {
		t.Fatalf("fixture log: %d records over %d of %d bytes", len(events), ends[len(ends)-1], len(classic))
	}
	seam := ends[cut-1]
	walPath := filepath.Join(sdir, walFile)
	if err := os.WriteFile(walPath, classic[:seam], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := durableReg(t, dir, DurableOptions{})
	if _, err := reg.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s, _ := reg.Get("golden")
	if s.WALSeq() != cut {
		t.Fatalf("restored %d records, want %d", s.WALSeq(), cut)
	}
	appendFramed(t, s, events[cut:], 40)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	logged, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var compact []byte
	for lo := cut; lo < len(events); lo += 40 {
		open := -1
		for _, ev := range events[lo:min(lo+40, len(events))] {
			if compact, open, err = wal.AppendRecord(compact, open, wal.RefRecord(ev)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(logged, slices.Concat(classic[:seam], compact)) {
		t.Fatal("the log is not the classic prefix followed by one compact frame per appended batch")
	}
	head, n, _, err := wal.ChainScan(walPath, 0, integrity.Head{})
	if err != nil || n != int64(len(events)) {
		t.Fatalf("chain scan: %d records, %v", n, err)
	}
	if rep := audit.VerifySession(sdir, head.String()); rep.Status != audit.StatusVerified || rep.WALRecords != n {
		t.Fatalf("audit = %+v", rep)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	defer reg2.Close()
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("golden")
	st, err := s2.Integrity()
	if err != nil || st.ChainHead != head.String() || st.WALSeq != n {
		t.Fatalf("restored integrity %+v (%v), file chain %s over %d", st, err, head, n)
	}
	expect, err := os.ReadFile(filepath.Join("testdata", "golden-v1", "expect.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+9 <= len(expect); off += 9 {
		v := graph.VertexID(binary.LittleEndian.Uint32(expect[off:]))
		w := graph.VertexID(binary.LittleEndian.Uint32(expect[off+4:]))
		if got, err := s2.Reach(v, w); err != nil || got != (expect[off+8] == 1) {
			t.Fatalf("reach(%d,%d) = %v, %v; the fixture says %v", v, w, got, err, expect[off+8] == 1)
		}
	}
	// Events arrive in topological order, so each one's ancestors are
	// its predecessors' plus itself.
	ancestors := make(map[graph.VertexID]map[graph.VertexID]bool, len(events))
	for _, ev := range events {
		anc := map[graph.VertexID]bool{ev.V: true}
		for _, p := range ev.Preds {
			for a := range ancestors[p] {
				anc[a] = true
			}
		}
		ancestors[ev.V] = anc
	}
	for _, ev := range events[cut:] {
		for _, u := range events {
			for _, pair := range [][2]graph.VertexID{{u.V, ev.V}, {ev.V, u.V}} {
				want := ancestors[pair[1]][pair[0]]
				if got, err := s2.Reach(pair[0], pair[1]); err != nil || got != want {
					t.Fatalf("reach(%d,%d) = %v, %v; breadth-first search says %v", pair[0], pair[1], got, err, want)
				}
			}
		}
	}
}

// batchFrame frames events as one batch, as the SDK sends a batch.
func batchFrame(t *testing.T, events []run.Event) []byte {
	t.Helper()
	wire := make([]api.Event, len(events))
	for i, ev := range events {
		wire[i] = api.FromRun(ev)
	}
	frame, err := api.AppendFrames(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestHTTPBinaryIngestTakesBatchFramesWhole: a body of batch frames is
// taken a frame at a time. A frame damaged anywhere — its CRC, its last
// record cut short, a byte past its last record — is refused whole with
// bad_frame, the frames before it applied and logged byte for byte and
// nothing of it or after it. A frame the labeler stops inside reports
// the applied prefix to the record, and the log takes that prefix
// re-framed, so a restore recovers exactly what was acknowledged. A
// frame of more records than the handler applies at once still goes in
// whole and is teed as it came.
func TestHTTPBinaryIngestTakesBatchFramesWhole(t *testing.T) {
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 1200, 5)
	first, second, third := events[:40], events[40:80], events[80:120]
	good := batchFrame(t, second)
	payload := good[wal.FrameHeaderSize:]
	crc := bytes.Clone(good)
	crc[len(crc)-1] ^= 0x01
	for _, tc := range []struct {
		name   string
		damage []byte
	}{
		{"CRC mismatch", crc},
		{"last record cut short", framed(payload[:len(payload)-1])},
		{"a byte past the last record", framed(append(bytes.Clone(payload), 0))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, dir, srv := newDurableTestServer(t)
			if _, err := reg.Create("b", g, Config{}); err != nil {
				t.Fatal(err)
			}
			body := slices.Concat(batchFrame(t, first), tc.damage, batchFrame(t, third))
			code, raw := postBinary(t, srv.URL+"/v1/sessions/b/events", body, nil)
			expectCode(t, 400, api.CodeBadFrame, code, raw)
			var resp api.ErrorResponse
			if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Applied != len(first) {
				t.Fatalf("applied = %s, want the %d events of the frame before the damaged one", raw, len(first))
			}
			if s, _ := reg.Get("b"); s.Vertices() != int64(len(first)) {
				t.Fatalf("session holds %d vertices, want %d", s.Vertices(), len(first))
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			logged, err := os.ReadFile(filepath.Join(dir, "b", walFile))
			if err != nil || !bytes.Equal(logged, batchFrame(t, first)) {
				t.Fatalf("the log holds %d bytes, want exactly the first frame (%v)", len(logged), err)
			}
		})
	}

	t.Run("one frame past the handler's chunk", func(t *testing.T) {
		reg, dir, srv := newDurableTestServer(t)
		if _, err := reg.Create("b", g, Config{}); err != nil {
			t.Fatal(err)
		}
		big := events[:binaryChunk+100]
		body := batchFrame(t, big)
		var resp api.EventsResponse
		if code, raw := postBinary(t, srv.URL+"/v1/sessions/b/events", body, &resp); code != 200 || resp.Applied != len(big) {
			t.Fatalf("a frame of %d events: %d %s", len(big), code, raw)
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		if logged, err := os.ReadFile(filepath.Join(dir, "b", walFile)); err != nil || !bytes.Equal(logged, body) {
			t.Fatalf("the log holds %d bytes, want the body's frame (%d bytes)", len(logged), len(body))
		}
	})

	t.Run("labeler stops inside a frame", func(t *testing.T) {
		reg, dir, srv := newDurableTestServer(t)
		if _, err := reg.Create("b", g, Config{}); err != nil {
			t.Fatal(err)
		}
		const k = 25 // second[k] repeats a vertex already labeled
		dup := slices.Clone(second)
		dup[k] = first[3]
		body := slices.Concat(batchFrame(t, first), batchFrame(t, dup), batchFrame(t, third))
		code, raw := postBinary(t, srv.URL+"/v1/sessions/b/events", body, nil)
		expectCode(t, 400, api.CodeBadEvent, code, raw)
		var resp api.ErrorResponse
		if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Applied != len(first)+k {
			t.Fatalf("applied = %s, want %d", raw, len(first)+k)
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		logged, err := os.ReadFile(filepath.Join(dir, "b", walFile))
		if want := slices.Concat(batchFrame(t, first), batchFrame(t, second[:k])); err != nil || !bytes.Equal(logged, want) {
			t.Fatalf("the log holds %d bytes, want the first frame and the applied prefix of the second re-framed (%d bytes)", len(logged), len(want))
		}
		reg2 := durableReg(t, dir, DurableOptions{})
		defer reg2.Close()
		if _, err := reg2.Restore(dir); err != nil {
			t.Fatal(err)
		}
		s, _ := reg2.Get("b")
		if s.Vertices() != int64(len(first)+k) {
			t.Fatalf("restored %d vertices, want the %d acknowledged", s.Vertices(), len(first)+k)
		}
		if n, err := s.Append(events[len(first)+k:]); err != nil || n != len(events)-len(first)-k {
			t.Fatalf("the stream goes on from the applied prefix: applied %d, %v", n, err)
		}
	})
}
