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
// checks the chain it folded while pulling, not its own log's. The
// failed drain deletes its copy, so once the override arrives by gossip
// the target serves nothing and refuses writes, and a re-POSTed move
// fails the same check; with the owner's log restored, a retry drains
// and verifies.
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
			pristine, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			tampered := findMoveTamper(t, walPath, g)
			if err := os.WriteFile(walPath, tampered, 0o644); err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			req := api.MoveRequest{Session: sess, Target: "n1"}
			_, err = target.ctl.Move(ctx, req)
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

			// The owner sealed and installed the override before the check
			// failed; gossip brings it here. The forged copy must be gone by
			// then, so nothing serves it.
			if _, err := target.ctl.State().Merge(owner.ctl.Map()); err != nil {
				t.Fatal(err)
			}
			if got := target.ctl.State().Place(sess).Name; got != "n1" {
				t.Fatalf("after gossip the map places %q on %s, want n1", sess, got)
			}
			if _, have := target.reg.Get(sess); have {
				t.Fatal("the forged copy is still in the target's registry")
			}
			if err := target.ctl.Route(sess, true); err == nil {
				t.Fatal("the target takes writes for a session whose drain failed its chain check")
			}
			if _, err := target.ctl.Move(ctx, req); err == nil || !strings.Contains(err.Error(), "tampered") {
				t.Fatalf("re-POSTed move after gossip = %v, want the chain check's refusal", err)
			}

			// With the owner's log back to its sealed bytes, a retry drains
			// and verifies: nothing acked was lost.
			if err := os.WriteFile(walPath, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			resp, err := target.ctl.Move(ctx, req)
			if err != nil {
				t.Fatalf("retry after restoring the owner's log: %v", err)
			}
			if resp.Events != int64(len(events)) {
				t.Fatalf("retry moved %d events, want %d", resp.Events, len(events))
			}
			moved, have := target.reg.Get(sess)
			if !have {
				t.Fatal("the retried move left no copy")
			}
			// A memory target has no log of its own; its drain compared
			// the head it folded while pulling.
			if tc.memory == nil {
				_, srcHead, _ := s.ChainState()
				if seq, head, ok := moved.ChainState(); !ok || seq != int64(len(events)) || head != srcHead {
					t.Fatalf("target ChainState = (%d, %s, %v), want (%d, %s, true)", seq, head, ok, len(events), srcHead)
				}
			}
			if err := target.ctl.Route(sess, true); err != nil {
				t.Fatalf("the verified copy refuses writes: %v", err)
			}
		})
	}
}
