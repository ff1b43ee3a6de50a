package cluster_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/graph"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// TestMoveCarriesAndVerifiesChain: a move between durable nodes seals
// the source's chain head into the override, and the drained copy on
// the target independently reproduces it — the positive half of the
// move-time tamper check.
func TestMoveCarriesAndVerifiesChain(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner, target := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s, events := createWithEvents(t, owner.reg, sess, 500)
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}
	srcSeq, srcHead, ok := s.ChainState()
	if !ok || srcSeq != int64(len(events)) {
		t.Fatalf("source ChainState = (%d, _, %v), want (%d, _, true)", srcSeq, ok, len(events))
	}

	ctx := context.Background()
	if _, err := target.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n1"}); err != nil {
		t.Fatal(err)
	}

	// The override carries the sealed head verbatim.
	ov, moved := target.ctl.State().OverrideFor(sess)
	if !moved {
		t.Fatal("no override after move")
	}
	if ov.ChainHead == "" {
		t.Fatal("override carries no chain head from a durable source")
	}
	if ov.ChainHead != srcHead.String() || ov.FinalSeq != srcSeq {
		t.Fatalf("override (%s at %d), source sealed (%s at %d)", ov.ChainHead, ov.FinalSeq, srcHead, srcSeq)
	}
	// The target rebuilt the same head from the drained frames.
	moved2, have := target.reg.Get(sess)
	if !have {
		t.Fatal("target has no copy")
	}
	seq, head, ok := moved2.ChainState()
	if !ok || seq != srcSeq || head != srcHead {
		t.Fatalf("target ChainState = (%d, %s, %v), want (%d, %s, true)", seq, head, ok, srcSeq, srcHead)
	}
}

// findMoveTamper mirrors the follower drill's search: a one-record
// rewrite after which the WAL still decodes and replays cleanly, so the
// drain succeeds and only the chain check can object.
func findMoveTamper(t *testing.T, walPath string, g *spec.Grammar) []byte {
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
		}); err != nil || n != len(offs) {
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
	for idx := len(offs) - 1; idx >= 0 && idx >= len(offs)-60; idx-- {
		off := offs[idx]
		end := off + int64(wal.FrameHeaderSize) + int64(binary.LittleEndian.Uint32(raw[off:]))
		rec, err := wal.DecodeRecord(raw[off+wal.FrameHeaderSize : end])
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []graph.VertexID{1, 2, 4, 8, 16, 32, 64} {
			forged := rec
			forged.Ref.V ^= x
			frame, err := wal.AppendFrame(nil, forged)
			if err != nil || len(frame) != int(end-off) {
				continue
			}
			if cand := slices.Concat(raw[:off], frame, raw[end:]); replays(cand) {
				return cand
			}
		}
	}
	t.Fatal("no labelable one-record tamper found (the drill needs one)")
	return nil
}

// TestMoveRejectsTamperedDrain is the cluster leg of the tamper drill:
// the source's on-disk WAL is rewritten (CRC fixed, still replayable)
// while the source process still answers for the original bytes. The
// drain applies cleanly, the sealed head disagrees, and the move must
// fail before the override flips routing to the forged copy — on a
// durable target and on a memory-only one alike, since the target
// checks the chain it folded while pulling, not its own log's.
func TestMoveRejectsTamperedDrain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		memory []int // node indexes without a log
	}{
		{name: "durable target"},
		{name: "memory target", memory: []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := newCluster(t, 2, tc.memory...)
			sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
			owner, target := byName(t, nodes, "n0"), byName(t, nodes, "n1")
			s, events := createWithEvents(t, owner.reg, sess, 300)
			if _, err := s.Append(events); err != nil {
				t.Fatal(err)
			}
			g := spec.MustCompile(wfspecs.RunningExample())

			walPath := filepath.Join(owner.dir, sess, "events.wal")
			tampered := findMoveTamper(t, walPath, g)
			if err := os.WriteFile(walPath, tampered, 0o644); err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			_, err := target.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n1"})
			if err == nil {
				t.Fatal("move served a rewritten history without objecting")
			}
			if !strings.Contains(err.Error(), "tampered") {
				t.Fatalf("move failed for the wrong reason: %v", err)
			}
			// The forged copy never went live: the target still routes the
			// session to its (sealed) source.
			if got := target.ctl.State().Place(sess).Name; got != "n0" {
				t.Fatalf("target flipped routing to %s despite a failed chain check", got)
			}
		})
	}
}
