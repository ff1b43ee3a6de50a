package replica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wfreach/internal/graph"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// TestFollowerChainVerification: a clean follower not only catches up
// but cryptographically verifies what it applied — every session's
// verified sequence must reach the applied sequence.
func TestFollowerChainVerification(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 400)
	for _, w := range ws {
		if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(t, p.reg, ws, func(int) int { return 0 }, func(n int) int { return n })

	f := newEnv(t)
	defer f.close()
	fo := New(p.srv.URL, f.reg, fastOptions())
	fo.Start()
	defer fo.Close()
	waitCaughtUp(t, p.reg, f.reg, ws)

	deadline := time.Now().Add(10 * time.Second)
	for {
		lag := ""
		for _, w := range ws {
			fo.mu.Lock()
			ss := fo.sessions[w.name]
			fo.mu.Unlock()
			if ss == nil {
				lag = w.name + " not adopted"
				break
			}
			applied := fo.applied(w.name)
			ss.mu.Lock()
			verified, errs := ss.verifiedSeq, ss.lastErr
			ss.mu.Unlock()
			if verified < applied {
				lag = fmt.Sprintf("%s verified %d of %d (%s)", w.name, verified, applied, errs)
				break
			}
		}
		if lag == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain verification never caught up: %s", lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// findLabelableTamper searches the WAL for a one-record rewrite after
// which the log still decodes and replays cleanly — the adversarial
// rewrite the drill needs: invisible to structure, invisible to the
// deterministic labeler, visible only to the hash chain. Returns the
// tampered file contents.
func findLabelableTamper(t *testing.T, walPath string, g *spec.Grammar) []byte {
	t.Helper()
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for off := int64(0); off < int64(len(raw)); {
		offs = append(offs, off)
		off += int64(wal.FrameHeaderSize) + int64(binary.LittleEndian.Uint32(raw[off:]))
	}
	total, _, err := wal.Scan(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "cand.wal")
	replays := func(cand []byte) bool {
		if err := os.WriteFile(tmp, cand, 0o644); err != nil {
			t.Fatal(err)
		}
		// Scan stops quietly at a frame that does not decode, so a rewrite
		// that breaks one is a truncation, not a forgery: every frame
		// must still be there.
		var recs []wal.Record
		if n, _, err := wal.Scan(tmp, func(_ int, rec wal.Record) error {
			recs = append(recs, rec)
			return nil
		}); err != nil || n != total {
			return false
		}
		reg := service.NewRegistry()
		s, err := reg.Create("probe", g, service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, aerr := s.AppendRecords(recs, nil)
		return aerr == nil
	}
	// Late records are the richest hunting ground: flipping a bit of a
	// vertex id there lands on a fresh id with no later references. A
	// record's predecessors are stored relative to its vertex, so the
	// forged record is re-framed by the log's own writer, which keeps
	// their ids.
	tries := 0
	for idx := len(offs) - 1; idx >= 0 && tries < 60; idx-- {
		off := offs[idx]
		end := off + int64(wal.FrameHeaderSize) + int64(binary.LittleEndian.Uint32(raw[off:]))
		recs, err := wal.DecodePayload(nil, new([]graph.VertexID), raw[off+wal.FrameHeaderSize:end])
		if err != nil {
			t.Fatal(err)
		}
		for r := len(recs) - 1; r >= 0 && tries < 60; r, tries = r-1, tries+1 {
			for _, x := range []graph.VertexID{1, 2, 4, 8, 16, 32, 64} {
				forged := slices.Clone(recs)
				forged[r].Ref.V ^= x
				var frame []byte
				open := -1
				for _, rec := range forged {
					if frame, open, err = wal.AppendRecord(frame, open, rec); err != nil {
						break
					}
				}
				if err != nil || open != 0 || len(frame) != int(end-off) {
					continue // same length: every later frame keeps its offset
				}
				if cand := slices.Concat(raw[:off], frame, raw[end:]); replays(cand) {
					return cand
				}
			}
		}
	}
	t.Fatal("no labelable one-record tamper found (the drill needs one)")
	return nil
}

// TestTamperDrillFollowerHardStop is the follower leg of the tamper
// drill: rewrite one committed record in the primary's on-disk WAL
// (CRC fixed, still decodable, still labelable) while the primary is
// running — its in-memory chain head still commits to the original
// bytes. A fresh follower replays the tampered history cleanly,
// catches up, compares chain heads, and must stop hard instead of
// serving it.
func TestTamperDrillFollowerHardStop(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 300)[:1]
	w := ws[0]
	if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
		t.Fatal(err)
	}
	ingest(t, p.reg, ws, func(int) int { return 0 }, func(n int) int { return n })

	// Tamper the primary's log on disk. The running primary's chain
	// head lives in memory and still answers for the original bytes;
	// the tail stream serves the rewritten ones.
	walPath := filepath.Join(p.dir, w.name, "events.wal")
	orig, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := findLabelableTamper(t, walPath, w.g)
	if bytes.Equal(orig, tampered) {
		t.Fatal("tamper search returned the original bytes")
	}
	if err := os.WriteFile(walPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	f := newEnv(t)
	defer f.close()
	fo := New(p.srv.URL, f.reg, fastOptions())
	fo.Start()
	defer fo.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		fo.mu.Lock()
		ss := fo.sessions[w.name]
		fo.mu.Unlock()
		if ss != nil {
			ss.mu.Lock()
			stopped, lastErr := ss.stopped, ss.lastErr
			ss.mu.Unlock()
			if stopped {
				if !strings.Contains(lastErr, "chain mismatch") || !strings.Contains(lastErr, "seq") {
					t.Fatalf("follower stopped for the wrong reason: %s", lastErr)
				}
				// Hard stop, not a reconnect: the error names the sequence
				// and the loop must not keep retrying into the same forgery.
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("follower served a rewritten history without objecting")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
