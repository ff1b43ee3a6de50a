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
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/integrity/audit"
	"wfreach/internal/skeleton"
	"wfreach/internal/wal"
)

// tamperWALRecord flips one payload byte of the idx-th (0-based)
// record in the WAL at path and recomputes the frame CRC, producing a
// rewrite that every structural check accepts and only the hash chain
// can catch. The rewritten record must still decode: one that does not
// ends the log's valid prefix there, a truncation rather than a rewrite.
func tamperWALRecord(t *testing.T, path string, idx int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for i := 0; i < idx; i++ {
		off += int64(wal.FrameHeaderSize) + int64(binary.LittleEndian.Uint32(raw[off:]))
	}
	plen := binary.LittleEndian.Uint32(raw[off:])
	payload := raw[off+wal.FrameHeaderSize : off+wal.FrameHeaderSize+int64(plen)]
	payload[len(payload)-1] ^= 0x01
	if _, err := wal.DecodeRecord(payload); err != nil {
		t.Fatalf("tampered record %d no longer decodes: %v", idx, err)
	}
	binary.LittleEndian.PutUint32(raw[off+4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildDurableSession ingests size events into session name under dir
// and returns the registry (still open) and the session.
func buildDurableSession(t *testing.T, dir, name string, size int, opts DurableOptions) (*Registry, *Session) {
	t.Helper()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, size, 5)
	reg := durableReg(t, dir, opts)
	s, err := reg.Create(name, g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
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
	head, n, _, err := wal.ChainScan(filepath.Join(dir, "live", walFile), 0, integrity.Head{})
	if err != nil || n != st.WALSeq {
		t.Fatalf("file scan: n=%d err=%v", n, err)
	}
	if st.ChainHead != head.String() {
		t.Fatalf("endpoint chain %s, file chain %s", st.ChainHead, head)
	}
	if st.MerkleRoot != "" || st.SnapshotWatermark != 0 {
		t.Fatalf("no snapshot was taken, yet %+v", st)
	}
}

// TestIntegrityUnavailableOnMemorySession: a session without a WAL
// answers with the typed not_durable error, not a 500.
func TestIntegrityUnavailableOnMemorySession(t *testing.T) {
	reg := NewRegistry()
	g := compileBuiltin(t, "RunningExample")
	if _, err := reg.Create("mem", g, Config{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sessions/mem/integrity")
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

// TestTornTailChainReseed: a crash tears the last WAL frame; restore
// drops the torn bytes and must re-seed the chain at exactly the
// surviving prefix, so the reopened log continues a chain that still
// matches the file from genesis.
func TestTornTailChainReseed(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 300, 5)
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("torn", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:200], 37)
	s.snapWG.Wait() // let a mid-stream snapshot land
	s.ingestMu.Lock()
	s.snapEvery = -1
	s.ingestMu.Unlock()
	appendAll(t, s, events[200:], 37)
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
	if survived != int64(len(events))-1 {
		t.Fatalf("restored %d events, want %d (one torn off)", survived, len(events)-1)
	}
	st, err := s2.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	head, n, _, err := wal.ChainScan(walPath, 0, integrity.Head{})
	if err != nil || n != survived {
		t.Fatalf("file scan n=%d err=%v", n, err)
	}
	if st.ChainHead != head.String() {
		t.Fatalf("re-seeded chain %s, file chain %s", st.ChainHead, head)
	}

	// The continuation is seamless: new appends extend the same chain.
	appendAll(t, s2, events[len(events)-1:], 1)
	st2, err := s2.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}
	full, n2, _, err := wal.ChainScan(walPath, 0, integrity.Head{})
	if err != nil || n2 != int64(len(events)) {
		t.Fatalf("final scan n=%d err=%v", n2, err)
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
// an arena label extent with both CRCs patched. The auditor and the
// restore must each refuse it via the Merkle root.
func TestTamperDrillArenaExtent(t *testing.T) {
	dir := t.TempDir()
	reg, _ := buildDurableSession(t, dir, "drill", 300, DurableOptions{SnapshotEvery: 1 << 20})
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "drill")
	snapPath := filepath.Join(sdir, snapFile)

	// Flip a label byte; patch the label CRC and the index CRC so every
	// structural check passes.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 120
	labelOff := hdr + int(binary.LittleEndian.Uint64(raw[108:116]))
	raw[labelOff+7] ^= 0x10
	binary.LittleEndian.PutUint32(raw[40:44], crc32.ChecksumIEEE(raw[labelOff:]))
	idx := crc32.NewIEEE()
	idx.Write(raw[8 : hdr-4])
	idx.Write(raw[hdr:labelOff])
	binary.LittleEndian.PutUint32(raw[hdr-4:hdr], idx.Sum32())
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

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

// TestIntegrityUnavailableOnLegacySnapshot: a data directory whose
// labels.snap is in a format earlier builds wrote — a WFSNAP01 magic
// with nothing readable past it, or a whole, checksummed WFSNAP03 file —
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
	} {
		dir := t.TempDir()
		reg := durableReg(t, dir, DurableOptions{})
		s, err := reg.Create("old", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
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
