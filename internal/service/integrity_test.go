package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/arena"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/integrity/audit"
	"wfreach/internal/wal"
)

// chainWalk walks the log at path from genesis as restore does,
// adding every frame's records to the hash chain, and returns the head
// and the records the frames carry.
func chainWalk(t *testing.T, path string) (integrity.Head, int64) {
	t.Helper()
	w := wal.OpenWalk(path, 0)
	defer w.Close()
	chainer := integrity.NewChainer()
	var head integrity.Head
	for w.Next() {
		head = chainer.Extend(head, w.Frame())
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return head, w.Seq()
}

// tamperWALRecord flips one payload byte of the idx-th (0-based)
// record in the WAL at path — the last byte of that record, inside
// whatever batch frame carries it — and recomputes the frame CRC,
// producing a rewrite that every structural check accepts and only the
// hash chain can catch. The rewritten frame must still decode whole:
// one that does not ends the log's valid prefix there, a truncation
// rather than a rewrite.
func tamperWALRecord(t *testing.T, path string, idx int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); {
		payload := raw[off+wal.FrameHeaderSize : off+wal.FrameHeaderSize+int(binary.LittleEndian.Uint32(raw[off:]))]
		recs, err := wal.DecodePayload(nil, new([]graph.VertexID), payload)
		if err != nil {
			t.Fatal(err)
		}
		if idx >= len(recs) {
			idx -= len(recs)
			off += wal.FrameHeaderSize + len(payload)
			continue
		}
		end := 0 // compact records re-frame to exactly their bytes
		for _, rec := range recs[:idx+1] {
			one, err := wal.AppendFrame(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			end += len(one) - wal.FrameHeaderSize
		}
		payload[end-1] ^= 0x01
		if back, err := wal.DecodePayload(nil, new([]graph.VertexID), payload); err != nil || len(back) != len(recs) {
			t.Fatalf("tampered frame no longer decodes whole: %d records, %v", len(back), err)
		}
		binary.LittleEndian.PutUint32(raw[off+4:], crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("the log holds no record %d", idx)
}

// buildDurableSession ingests size events into session name under dir
// and returns the registry (still open) and the session.
func buildDurableSession(t *testing.T, dir, name string, size int, opts DurableOptions) (*Registry, *Session) {
	t.Helper()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, size, 5)
	reg := durableReg(t, dir, opts)
	s, err := reg.Create(name, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events, 64)
	return reg, s
}

// TestIntegrityLiveEndpoint: the live chain head the endpoint reports
// is exactly the hash of the committed WAL bytes on disk.
func TestIntegrityLiveEndpoint(t *testing.T) {
	dir := t.TempDir()
	reg, s := buildDurableSession(t, dir, "live", 200, DurableOptions{SnapshotEvery: -1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/sessions/live/integrity")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /integrity = %d", resp.StatusCode)
	}
	var st api.SessionIntegrity
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Session != "live" || st.WALSeq != s.WALSeq() {
		t.Fatalf("integrity = %+v, wal seq %d", st, s.WALSeq())
	}
	head, n := chainWalk(t, filepath.Join(dir, "live", walFile))
	if n != st.WALSeq {
		t.Fatalf("file scan: n=%d", n)
	}
	if st.ChainHead != head.String() {
		t.Fatalf("endpoint chain %s, file chain %s", st.ChainHead, head)
	}
	if st.MerkleRoot != "" || st.SnapshotWatermark != 0 {
		t.Fatalf("no snapshot was taken, yet %+v", st)
	}
}

// TestIntegrityUnavailableOnClosedLog: a session whose WAL is closed
// answers with the typed not_durable error, not a 500.
func TestIntegrityUnavailableOnClosedLog(t *testing.T) {
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	g := compileBuiltin(t, "RunningExample")
	if _, err := reg.Create("closed", g, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sessions/closed/integrity")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 400 || envelope.Err == nil || envelope.Err.Code != api.CodeNotDurable {
		t.Fatalf("status %d, envelope %+v", resp.StatusCode, envelope.Err)
	}
}

// TestIntegritySnapshotAnchorsAfterRestore: a graceful shutdown leaves
// an integrity-stamped snapshot, and the restored session reports its
// Merkle root, watermark and the matching chain head.
func TestIntegritySnapshotAnchorsAfterRestore(t *testing.T) {
	dir := t.TempDir()
	reg, s := buildDurableSession(t, dir, "anchor", 300, DurableOptions{SnapshotEvery: 1 << 20})
	n := s.WALSeq()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := arena.Open(filepath.Join(dir, "anchor", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	root, anchor := a.Integrity()
	a.Close()

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	s2, _ := reg2.Get("anchor")
	st, err := s2.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if st.WALSeq != n || st.SnapshotWatermark != n {
		t.Fatalf("seq/watermark = %d/%d, want %d", st.WALSeq, st.SnapshotWatermark, n)
	}
	if st.MerkleRoot != root.String() {
		t.Fatalf("merkle %s, snapshot has %s", st.MerkleRoot, root)
	}
	// The snapshot covers the whole log, so the live head is the anchor.
	if st.ChainHead != anchor.String() {
		t.Fatalf("chain %s, anchor %s", st.ChainHead, anchor)
	}

	// And the offline auditor agrees end to end.
	rep := audit.VerifySession(filepath.Join(dir, "anchor"), st.ChainHead)
	if rep.Status != audit.StatusVerified || rep.WALRecords != n || rep.TailRecords != 0 {
		t.Fatalf("audit = %+v", rep)
	}
}

// TestTornTailChainReseed: a crash tears the last WAL frame — the last
// batch; restore drops the torn bytes and must re-seed the chain at
// exactly the surviving prefix, so the reopened log continues a chain
// that still matches the file from genesis.
func TestTornTailChainReseed(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 300, 5)
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("torn", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendFramed(t, s, events[:200], 37)
	s.snapWG.Wait() // let a mid-stream snapshot land
	s.ingestMu.Lock()
	s.snapEvery = -1
	s.ingestMu.Unlock()
	appendFramed(t, s, events[200:], 37)
	// Crash: no Close. Tear the tail mid-frame.
	walPath := filepath.Join(dir, "torn", walFile)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := reg2.Get("torn")
	survived := s2.WALSeq()
	last := (len(events)-200-1)%37 + 1
	if survived != int64(len(events)-last) {
		t.Fatalf("restored %d events, want %d (the last batch of %d torn off)", survived, len(events)-last, last)
	}
	st, err := s2.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	head, n := chainWalk(t, walPath)
	if n != survived {
		t.Fatalf("file scan n=%d", n)
	}
	if st.ChainHead != head.String() {
		t.Fatalf("re-seeded chain %s, file chain %s", st.ChainHead, head)
	}

	// The continuation is seamless: new appends extend the same chain.
	appendFramed(t, s2, events[survived:], 37)
	st2, err := s2.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}
	full, n2 := chainWalk(t, walPath)
	if n2 != int64(len(events)) {
		t.Fatalf("final scan n=%d", n2)
	}
	if st2.ChainHead != full.String() {
		t.Fatalf("post-append chain %s, file says %s", st2.ChainHead, full)
	}
}

// TestTamperDrillRestoreRejectsRewrittenWAL is the restore leg of the
// tamper drill: one byte flipped in a committed record below the
// snapshot watermark, CRC fixed, and the session must refuse to boot.
func TestTamperDrillRestoreRejectsRewrittenWAL(t *testing.T) {
	dir := t.TempDir()
	reg, _ := buildDurableSession(t, dir, "drill", 300, DurableOptions{SnapshotEvery: 1 << 20})
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	tamperWALRecord(t, filepath.Join(dir, "drill", walFile), 17)

	reg2 := durableReg(t, dir, DurableOptions{})
	_, err := reg2.Restore(dir)
	if err == nil {
		t.Fatal("restore booted clean from a rewritten WAL record")
	}
	if !strings.Contains(err.Error(), "integrity") || !strings.Contains(err.Error(), "below the watermark") {
		t.Fatalf("restore error does not name the violation: %v", err)
	}
}

// TestTamperDrillAuditCatchesBelowWatermarkRewrite is the wfverify leg:
// the flip sits in history a restore's replay would skip entirely
// (below the arena watermark), and the auditor must still catch it.
func TestTamperDrillAuditCatchesBelowWatermarkRewrite(t *testing.T) {
	dir := t.TempDir()
	reg, _ := buildDurableSession(t, dir, "drill", 300, DurableOptions{SnapshotEvery: 1 << 20})
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "drill")

	if rep := audit.VerifySession(sdir, ""); rep.Status != audit.StatusVerified {
		t.Fatalf("pristine audit = %+v", rep)
	}
	tamperWALRecord(t, filepath.Join(sdir, walFile), 4)
	rep := audit.VerifySession(sdir, "")
	if rep.Status != audit.StatusViolation {
		t.Fatalf("audit missed the rewrite: %+v", rep)
	}
	if !strings.Contains(rep.Err, "below the watermark") {
		t.Fatalf("violation does not say where: %s", rep.Err)
	}
}

// TestTamperDrillArenaExtent is the snapshot leg: one byte flipped in
// an arena label extent, which passes every structural check at Open.
// The auditor and the restore must each refuse it via the Merkle root.
func TestTamperDrillArenaExtent(t *testing.T) {
	dir := t.TempDir()
	reg, _ := buildDurableSession(t, dir, "drill", 300, DurableOptions{SnapshotEvery: 1 << 20})
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "drill")
	snapPath := filepath.Join(sdir, snapFile)

	// Flip a label byte: the index CRC covers the header and the index,
	// not the label region, so the file still opens.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 116
	labelOff := hdr + int(binary.LittleEndian.Uint64(raw[104:112]))
	raw[labelOff+7] ^= 0x10
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := arena.Open(snapPath)
	if err != nil {
		t.Fatalf("a flipped label byte must open cleanly, got %v", err)
	}
	a.Close()

	if rep := audit.VerifySession(sdir, ""); rep.Status != audit.StatusViolation {
		t.Fatalf("audit accepted a rewritten label extent: %+v", rep)
	}
	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err == nil {
		t.Fatal("restore booted clean from a rewritten label extent")
	} else if !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("restore error does not name integrity: %v", err)
	}
}

// rewriteAsWFSNAP03 replaces the snapshot at path with the file an
// earlier build wrote for the same labels: the 112-byte WFSNAP03 header
// and 16-byte index entries (vertex, length, offset), with correct
// checksums and anchors — a file that is wrong only in its version.
func rewriteAsWFSNAP03(t *testing.T, path string) {
	t.Helper()
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

// underMagic rewrites a snapshot file under another magic, leaving the
// rest of its bytes as they are.
func underMagic(magic string) func(t *testing.T, path string) {
	return func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append([]byte(magic), raw[8:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIntegrityUnavailableOnLegacySnapshot: a data directory whose
// labels.snap is in a format earlier builds wrote — a WFSNAP01 magic
// with nothing readable past it, a whole, checksummed WFSNAP03 file, or
// a WFSNAP05, WFSNAP06 or WFSNAP07 file, whose layout is today's but
// whose labels are not —
// restores fine from the log, reports anchors for the chain the restore
// re-seeded, and the auditor says "unavailable", not "violation". The
// next checkpoint replaces the file with one this build opens.
func TestIntegrityUnavailableOnLegacySnapshot(t *testing.T) {
	g := compileBuiltin(t, "RunningExample")
	events, _ := genEvents(t, g, 200, 3)
	for _, legacy := range []struct {
		name    string
		rewrite func(t *testing.T, path string)
	}{
		{"WFSNAP01 magic", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("WFSNAP01 and whatever a v1 body held"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"WFSNAP03 file", rewriteAsWFSNAP03},
		{"WFSNAP05 file", underMagic("WFSNAP05")},
		{"WFSNAP06 file", underMagic("WFSNAP06")},
		{"WFSNAP07 file", underMagic("WFSNAP07")},
	} {
		dir := t.TempDir()
		reg := durableReg(t, dir, DurableOptions{})
		s, err := reg.Create("old", g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, s, events, 64)
		n := s.walEvents
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		snapPath := filepath.Join(dir, "old", snapFile)
		legacy.rewrite(t, snapPath)
		if _, err := arena.Open(snapPath); !errors.Is(err, arena.ErrVersion) {
			t.Fatalf("%s: Open = %v, want ErrVersion", legacy.name, err)
		}

		rep := audit.VerifySession(filepath.Join(dir, "old"), "")
		if rep.Status != audit.StatusUnavailable || rep.WALRecords != n {
			t.Fatalf("%s: audit = %+v", legacy.name, rep)
		}

		reg2 := durableReg(t, dir, DurableOptions{})
		if _, err := reg2.Restore(dir); err != nil {
			t.Fatalf("%s: failed to restore: %v", legacy.name, err)
		}
		s2, _ := reg2.Get("old")
		st, err := s2.Integrity()
		if err != nil {
			t.Fatalf("%s: restored session has no chain: %v", legacy.name, err)
		}
		if st.MerkleRoot != "" || st.SnapshotWatermark != 0 {
			t.Fatalf("%s: restore claims snapshot anchors: %+v", legacy.name, st)
		}
		if st.ChainHead != rep.ChainHead || st.WALSeq != n {
			t.Fatalf("%s: re-seeded chain %s at %d, audit computed %s over %d", legacy.name, st.ChainHead, st.WALSeq, rep.ChainHead, rep.WALRecords)
		}
		if err := reg2.Close(); err != nil {
			t.Fatal(err)
		}
		if rep := audit.VerifySession(filepath.Join(dir, "old"), ""); rep.Status != audit.StatusVerified || rep.SnapshotWatermark != n {
			t.Fatalf("%s: after the next checkpoint, audit = %+v", legacy.name, rep)
		}
	}
}

// TestChainAtWalksTheLog: the head over a session's first seq events is
// the live head when the log holds exactly seq, and otherwise the head a
// walk of the log reaches at seq — the head the live log reported at
// that sequence, whatever follows, genesis at 0. A sequence past the end
// of the log, or inside a batch frame, has no head.
func TestChainAtWalksTheLog(t *testing.T) {
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
	defer reg.Close()
	g := compileBuiltin(t, "BioAID")
	s, err := reg.Create("walk", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := genEvents(t, g, 200, 12)
	appendFramed(t, s, events[:80], 20)
	_, at80, _ := s.ChainState()
	appendFramed(t, s, events[80:160], 20)
	seq, live, ok := s.ChainState()
	if !ok || seq != 160 {
		t.Fatalf("ChainState = (%d, %v)", seq, ok)
	}
	for _, tc := range []struct {
		name string
		seq  int64
		want integrity.Head
		bad  string // a substring of the error; empty: want holds
	}{
		{name: "the live head", seq: 160, want: live},
		{name: "a frame boundary below the live head", seq: 80, want: at80},
		{name: "genesis", seq: 0},
		{name: "past the end of the log", seq: 161, bad: "holds 160 records"},
		{name: "inside a batch frame", seq: 90, bad: "no frame boundary at record 90"},
	} {
		head, err := s.ChainAt(tc.seq)
		switch {
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("%s: ChainAt(%d) = (%s, %v), want an error saying %q", tc.name, tc.seq, head, err, tc.bad)
		case tc.bad == "" && (err != nil || head != tc.want):
			t.Errorf("%s: ChainAt(%d) = (%s, %v), want %s", tc.name, tc.seq, head, err, tc.want)
		}
	}
}
