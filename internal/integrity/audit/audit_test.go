package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// writeSession lays out a session directory by hand — the audit reads
// raw files, so no labeler is needed: a log of records records, and,
// with snapshotAt > 0, a snapshot anchored after that many of them. It
// returns the chain head over the whole log.
func writeSession(t *testing.T, sdir string, records, snapshotAt int) integrity.Head {
	t.Helper()
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, metaFile), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(sdir, walFile), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var entries []arena.Entry
	for i := 0; i < records; i++ {
		v := graph.VertexID(i)
		frame, err := wal.AppendFrame(nil, wal.RefRecord(run.Event{V: v, Preds: []graph.VertexID{v / 2}}))
		if err == nil {
			err = log.AppendRaw(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, arena.Entry{V: v, Enc: []byte{byte(i), 0xA5, byte(i >> 3)}})
		if i+1 == snapshotAt {
			_, head, _ := log.ChainHead()
			meta := arena.Meta{Events: int64(snapshotAt), WALBytes: log.AppendBytes(), ChainHead: head, HasChain: true}
			if _, err := arena.Write(filepath.Join(sdir, snapFile), meta, entries); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, head, _ := log.ChainHead()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return head
}

// mutate rewrites the named file of the session through fn.
func mutate(t *testing.T, sdir, name string, fn func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(sdir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// asWFSNAP03 turns a snapshot image into the file an earlier build
// wrote for the same labels: the 112-byte WFSNAP03 header and 16-byte
// index entries (vertex, length, offset), with correct checksums and
// anchors — a file that is wrong only in its version.
func asWFSNAP03(t *testing.T, sdir string) {
	t.Helper()
	path := filepath.Join(sdir, snapFile)
	a, err := arena.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	root, chain := a.Integrity()
	const hdr, entry = 112, 16
	img := make([]byte, hdr+entry*a.Count())
	var labels []byte
	i := 0
	a.Range(func(v graph.VertexID, enc []byte) bool {
		e := img[hdr+entry*i:]
		binary.LittleEndian.PutUint32(e[0:], uint32(v))
		binary.LittleEndian.PutUint32(e[4:], uint32(len(enc)))
		binary.LittleEndian.PutUint64(e[8:], uint64(len(labels)))
		labels = append(labels, enc...)
		i++
		return true
	})
	copy(img, "WFSNAP03")
	binary.LittleEndian.PutUint64(img[8:], uint64(a.Events()))
	binary.LittleEndian.PutUint64(img[16:], uint64(a.WALBytes()))
	binary.LittleEndian.PutUint64(img[24:], uint64(a.Count()))
	binary.LittleEndian.PutUint64(img[32:], uint64(len(labels)))
	binary.LittleEndian.PutUint32(img[40:], crc32.ChecksumIEEE(labels))
	copy(img[44:76], root[:])
	copy(img[76:108], chain[:])
	h := crc32.NewIEEE()
	h.Write(img[8:108])
	h.Write(img[hdr:])
	binary.LittleEndian.PutUint32(img[108:], h.Sum32())
	a.Close()
	if err := os.WriteFile(path, append(img, labels...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// asWFSNAP04 turns a snapshot image into the file the previous build
// wrote for the same labels: the same index and label region behind a
// 120-byte header that also carries a label-region CRC, stamped with
// that build's Merkle root — one leaf per label, SHA-256(0x00 ||
// uint32le(v) || label) — so the file is wrong only in its version.
func asWFSNAP04(t *testing.T, sdir string) {
	t.Helper()
	path := filepath.Join(sdir, snapFile)
	a, err := arena.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, chain := a.Integrity()
	var level []integrity.Head
	a.Range(func(v graph.VertexID, enc []byte) bool {
		level = append(level, sha256.Sum256(slices.Concat([]byte{0x00}, binary.LittleEndian.AppendUint32(nil, uint32(v)), enc)))
		return true
	})
	for len(level) > 1 { // pair level by level, an odd node promoted
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
			} else {
				next = append(next, sha256.Sum256(slices.Concat([]byte{0x01}, level[i][:], level[i+1][:])))
			}
		}
		level = next
	}
	root := level[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 120
	body := raw[116:] // index, then labels
	img := make([]byte, hdr, hdr+len(body))
	copy(img, "WFSNAP04")
	copy(img[8:40], raw[8:40]) // events, walBytes, count, labelBytes
	binary.LittleEndian.PutUint32(img[40:], crc32.ChecksumIEEE(a.Labels()))
	copy(img[44:76], root[:])
	copy(img[76:108], chain[:])
	copy(img[108:116], raw[104:112]) // indexBytes
	index := body[:binary.LittleEndian.Uint64(raw[104:112])]
	h := crc32.NewIEEE()
	h.Write(img[8:116])
	h.Write(index)
	binary.LittleEndian.PutUint32(img[116:], h.Sum32())
	a.Close()
	if err := os.WriteFile(path, append(img, body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifySessionTable is the auditor's contract: what it calls
// verified, what it calls unavailable (legal data that anchors
// nothing; a damaged snapshot header says why), and what it calls a
// violation — and that a torn WAL tail, a legal crash artifact, is none
// of the last.
func TestVerifySessionTable(t *testing.T) {
	const records, snapshotAt = 40, 25
	flip := func(at int) func([]byte) []byte {
		return func(b []byte) []byte {
			if at < 0 {
				at += len(b)
			}
			b[at] ^= 0x01
			return b
		}
	}
	for _, tc := range []struct {
		name       string
		snapshotAt int
		damage     func(t *testing.T, sdir string)
		expectHead func(full integrity.Head) string // nil: no external anchor
		want       Status
		wantErr    string // substring of the violation, or of an unavailable snapshot's reason
		records    int64  // WALRecords of a non-violation
		tail       int64  // TailRecords of a non-violation
	}{
		{name: "snapshot and tail intact", snapshotAt: snapshotAt, want: StatusVerified, records: records, tail: records - snapshotAt},
		{name: "recorded head matches", snapshotAt: snapshotAt, want: StatusVerified, records: records, tail: records - snapshotAt,
			expectHead: func(full integrity.Head) string { return full.String() }},
		{name: "torn tail is legal", snapshotAt: snapshotAt, want: StatusVerified, records: records - 1, tail: records - snapshotAt - 1,
			damage: func(t *testing.T, sdir string) {
				mutate(t, sdir, walFile, func(b []byte) []byte { return b[:len(b)-3] })
			}},
		{name: "no snapshot", want: StatusUnavailable, records: records, tail: records},
		{name: "old-magic snapshot", snapshotAt: snapshotAt, want: StatusUnavailable, records: records, tail: records,
			damage: func(t *testing.T, sdir string) {
				mutate(t, sdir, snapFile, func(b []byte) []byte { copy(b, "WFSNAP01"); return b })
			}},
		{name: "whole WFSNAP03 snapshot", snapshotAt: snapshotAt, want: StatusUnavailable, records: records, tail: records,
			damage: asWFSNAP03},
		{name: "whole WFSNAP04 snapshot", snapshotAt: snapshotAt, want: StatusUnavailable, records: records, tail: records,
			damage: asWFSNAP04},
		{name: "whole WFSNAP05 snapshot", snapshotAt: snapshotAt, want: StatusUnavailable, records: records, tail: records,
			damage: func(t *testing.T, sdir string) {
				mutate(t, sdir, snapFile, func(b []byte) []byte { copy(b, "WFSNAP05"); return b })
			}},
		{name: "whole WFSNAP06 snapshot", snapshotAt: snapshotAt, want: StatusUnavailable, records: records, tail: records,
			damage: func(t *testing.T, sdir string) {
				mutate(t, sdir, snapFile, func(b []byte) []byte { copy(b, "WFSNAP06"); return b })
			}},
		{name: "whole WFSNAP07 snapshot", snapshotAt: snapshotAt, want: StatusUnavailable, records: records, tail: records,
			damage: func(t *testing.T, sdir string) {
				mutate(t, sdir, snapFile, func(b []byte) []byte { copy(b, "WFSNAP07"); return b })
			}},
		{name: "flip in the snapshot header", snapshotAt: snapshotAt, want: StatusUnavailable, wantErr: "open snapshot", records: records, tail: records,
			damage: func(t *testing.T, sdir string) { mutate(t, sdir, snapFile, flip(50)) }},
		{name: "flip below the watermark", snapshotAt: snapshotAt, want: StatusViolation, wantErr: "below snapshot watermark",
			damage: func(t *testing.T, sdir string) { mutate(t, sdir, walFile, flip(wal.FrameHeaderSize+1)) }},
		{name: "flip in a label extent", snapshotAt: snapshotAt, want: StatusViolation, wantErr: "Merkle",
			damage: func(t *testing.T, sdir string) { mutate(t, sdir, snapFile, flip(-2)) }},
		{name: "recorded head mismatch", snapshotAt: snapshotAt, want: StatusViolation, wantErr: "recorded anchor",
			expectHead: func(integrity.Head) string { return integrity.Head{0xEE}.String() }},
		{name: "recorded head mismatch without a snapshot", want: StatusViolation, wantErr: "recorded anchor",
			expectHead: func(integrity.Head) string { return integrity.Head{0xEE}.String() }},
	} {
		sdir := filepath.Join(t.TempDir(), "s")
		full := writeSession(t, sdir, records, tc.snapshotAt)
		if tc.damage != nil {
			tc.damage(t, sdir)
		}
		expect := ""
		if tc.expectHead != nil {
			expect = tc.expectHead(full)
		}
		rep := VerifySession(sdir, expect)
		if rep.Session != "s" || rep.Status != tc.want {
			t.Errorf("%s: %+v, want status %s", tc.name, rep, tc.want)
			continue
		}
		if tc.want == StatusViolation {
			if !strings.Contains(rep.Err, tc.wantErr) {
				t.Errorf("%s: violation %q does not mention %q", tc.name, rep.Err, tc.wantErr)
			}
			continue
		}
		if !strings.Contains(rep.Err, tc.wantErr) || (tc.wantErr == "") != (rep.Err == "") || rep.WALRecords != tc.records || rep.TailRecords != tc.tail {
			t.Errorf("%s: %+v, want %d records with %d past the watermark", tc.name, rep, tc.records, tc.tail)
		}
		if anchored := rep.AnchorHead != "" && rep.MerkleRoot != ""; anchored != (tc.want == StatusVerified) ||
			(anchored && rep.SnapshotWatermark != snapshotAt) {
			t.Errorf("%s: anchors %q / %q at %d", tc.name, rep.AnchorHead, rep.MerkleRoot, rep.SnapshotWatermark)
		}
		if tc.records == records && rep.ChainHead != full.String() {
			t.Errorf("%s: chain head %s, the log's is %s", tc.name, rep.ChainHead, full)
		}
	}
}

// TestVerifyDir: the directory walk audits exactly the subdirectories a
// restore would pick up, sorted, and counts the violations among them.
func TestVerifyDir(t *testing.T) {
	dir := t.TempDir()
	writeSession(t, filepath.Join(dir, "b"), 10, 6)
	writeSession(t, filepath.Join(dir, "a"), 10, 0)
	writeSession(t, filepath.Join(dir, "c"), 10, 6)
	mutate(t, filepath.Join(dir, "c"), walFile, func(b []byte) []byte { b[wal.FrameHeaderSize+1] ^= 0x01; return b })
	if err := os.MkdirAll(filepath.Join(dir, "not-a-session"), 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range rep.Sessions {
		got = append(got, s.Session+":"+string(s.Status))
	}
	if want := "a:unavailable b:verified c:violation"; strings.Join(got, " ") != want {
		t.Fatalf("audit = %v, want %s", got, want)
	}
}

// TestAuditCountsRecordsOfBatchFrames audits a log the service wrote,
// one frame per batch: the report counts the records — events — the
// frames carry, not the frames, and its head is the one /integrity
// served. Both chain walks are covered: from genesis with no snapshot,
// and below the watermark of the snapshot a graceful close writes.
func TestAuditCountsRecordsOfBatchFrames(t *testing.T) {
	dir := t.TempDir()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	g := spec.MustCompile(wfspecs.BioAID())
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.Create("batched", g, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(events); lo += 256 {
		var recs []wal.Record
		for _, ev := range events[lo:min(lo+256, len(events))] {
			recs = append(recs, wal.RefRecord(ev))
		}
		if _, err := s.AppendRecords(recs, nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if st.WALSeq != int64(len(events)) {
		t.Fatalf("/integrity covers seq %d, want %d", st.WALSeq, len(events))
	}
	sdir := filepath.Join(dir, "batched")
	check := func(when string, status Status, tail int64) {
		t.Helper()
		rep := VerifySession(sdir, st.ChainHead)
		if rep.Status != status || rep.WALRecords != int64(len(events)) || rep.TailRecords != tail || rep.ChainHead != st.ChainHead {
			t.Fatalf("%s: %+v; want status %s, %d records (%d in the tail), head %s", when, rep, status, len(events), tail, st.ChainHead)
		}
	}
	check("no snapshot", StatusUnavailable, int64(len(events)))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	check("after the closing snapshot", StatusVerified, 0)
}
