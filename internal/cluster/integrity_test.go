package cluster_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/graph"
	"wfreach/internal/replica"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// TestMoveCarriesAndVerifiesChain: a move between durable nodes seals
// the source's chain head into the owner's pending override, the
// target's own log reproduces it at the sealed sequence, and the
// verified target replaces the pending override with a plain one at a
// higher version, which wins when the maps meet.
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
	if _, err := target.ctl.Move(context.Background(), api.MoveRequest{Session: sess, Target: "n1"}); err != nil {
		t.Fatal(err)
	}

	// The owner's map keeps the pending override: the sealed head verbatim.
	sealed, ok := owner.ctl.State().OverrideFor(sess)
	if !ok || sealed.Node != "n1" || sealed.From != "n0" || sealed.FinalSeq != srcSeq || sealed.ChainHead != srcHead.String() {
		t.Fatalf("owner's override %+v, want n0 → n1 sealed at seq %d, head %s", sealed, srcSeq, srcHead)
	}
	// The target's map carries the completion: a plain override, newer.
	done, ok := target.ctl.State().OverrideFor(sess)
	if !ok || done != (api.ClusterOverride{Node: "n1", Version: done.Version}) || done.Version <= sealed.Version {
		t.Fatalf("target's override %+v, want a plain one for n1 above v%d", done, sealed.Version)
	}
	if _, err := owner.ctl.State().Merge(target.ctl.Map()); err != nil {
		t.Fatal(err)
	}
	if got, _ := owner.ctl.State().OverrideFor(sess); got != done {
		t.Fatalf("after gossip the owner holds %+v, want the completed %+v", got, done)
	}
	// The target's own log reproduces the sealed head.
	moved, have := target.reg.Get(sess)
	if !have {
		t.Fatal("target has no copy")
	}
	seq, head, ok := moved.ChainState()
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
	total, _, err := wal.Scan(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "cand.wal")
	probes := newRegistry(t, t.TempDir())
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
		s, err := probes.Create("probe", g, service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer probes.Delete("probe")
		_, aerr := s.AppendRecords(recs, nil)
		return aerr == nil
	}
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

// drill is one run of the cluster tamper drill: the session, the node
// whose log was rewritten and the node moving the session to itself.
type drill struct {
	nodes    []*node
	src, dst *node
	sess     string
	req      api.MoveRequest
}

// movesRejected reads the node's wf_cluster_moves_total{phase="rejected"}.
func movesRejected(nd *node) int64 {
	return nd.reg.Obs().CounterVec("wf_cluster_moves_total", "", "phase").With("rejected").Value()
}

// wantTampered fails unless err is the chain check's refusal.
func wantTampered(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "tampered") {
		t.Fatalf("%s = %v, want the chain check's refusal", what, err)
	}
}

// TestMoveRejectsTamperedDrain is the cluster leg of the tamper drill.
// The source's on-disk WAL is rewritten (CRC fixed, still replayable)
// while the source process still answers for the original bytes, so
// the drain applies cleanly and only the sealed chain head can object.
// Each row reaches the verification by another route. Whatever the
// route, the target ends with no copy, refuses writes, fails a
// re-POSTed move "tampered" and counts the rejection; with the source's
// log restored, a retry verifies and serves every event.
func TestMoveRejectsTamperedDrain(t *testing.T) {
	ctx := context.Background()
	release := func(t *testing.T, d *drill) {
		t.Helper()
		if _, err := d.src.ctl.Release(ctx, api.ReleaseRequest{Session: d.sess, Node: d.dst.name, URL: d.dst.srv.URL}); err != nil {
			t.Fatal(err)
		}
	}
	gossip := func(t *testing.T, d *drill) {
		t.Helper()
		if _, err := d.dst.ctl.State().Merge(d.src.ctl.Map()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		back bool // move n0 → n1 first, then tamper n1's log and move back
		fail func(t *testing.T, d *drill)
	}{
		{name: "fresh move", fail: func(t *testing.T, d *drill) {
			_, err := d.dst.ctl.Move(ctx, d.req)
			wantTampered(t, "move", err)
		}},
		{name: "move back to a former owner", back: true, fail: func(t *testing.T, d *drill) {
			_, err := d.dst.ctl.Move(ctx, d.req)
			wantTampered(t, "move back", err)
		}},
		{name: "unverified drain", fail: func(t *testing.T, d *drill) {
			// The target adopted, was released to and pulled to the sealed
			// sequence, then died before checking; the override arrives by
			// gossip.
			src := client.New(d.src.srv.URL)
			st, err := src.Session(ctx, d.sess)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := replica.Adopt(ctx, d.dst.reg, src, st)
			if err != nil {
				t.Fatal(err)
			}
			release(t, d)
			final, _ := d.src.reg.Get(d.sess)
			for cp.Session().Vertices() < final.Vertices() {
				if _, err := cp.Pull(ctx, false, nil); err != nil {
					t.Fatal(err)
				}
			}
			gossip(t, d)
		}},
		{name: "re-POST after the failure", fail: func(t *testing.T, d *drill) {
			// The move fails and the target restarts from the static map,
			// without the pending override: the re-POST releases again.
			_, err := d.dst.ctl.Move(ctx, d.req)
			wantTampered(t, "move", err)
			newController(t, d.dst, d.nodes)
		}},
		{name: "prober resume after gossip", fail: func(t *testing.T, d *drill) {
			// The target died right after asking for the release; the
			// override arrives by gossip and the target's prober resumes.
			release(t, d)
			gossip(t, d)
			before := movesRejected(d.dst)
			d.dst.ctl.Start()
			defer d.dst.ctl.Close()
			deadline := time.Now().Add(10 * time.Second)
			for movesRejected(d.dst) == before {
				if time.Now().After(deadline) {
					t.Fatal("the prober never resumed the move")
				}
				time.Sleep(10 * time.Millisecond)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := newCluster(t, 2)
			sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
			d := &drill{nodes: nodes, src: byName(t, nodes, "n0"), dst: byName(t, nodes, "n1"), sess: sess}
			s, events := createWithEvents(t, d.src.reg, sess, 300)
			cut := len(events)
			if tc.back {
				cut = len(events) / 2
			}
			if _, err := s.Append(events[:cut]); err != nil {
				t.Fatal(err)
			}
			if tc.back {
				if _, err := d.dst.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: d.dst.name}); err != nil {
					t.Fatal(err)
				}
				moved, _ := d.dst.reg.Get(sess)
				if _, err := moved.Append(events[cut:]); err != nil {
					t.Fatal(err)
				}
				d.src, d.dst = d.dst, d.src
			}
			d.req = api.MoveRequest{Session: sess, Target: d.dst.name}

			walPath := filepath.Join(d.src.dir, sess, "events.wal")
			pristine, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			tampered := findMoveTamper(t, walPath, spec.MustCompile(wfspecs.RunningExample()))
			if err := os.WriteFile(walPath, tampered, 0o644); err != nil {
				t.Fatal(err)
			}

			before := movesRejected(d.dst)
			tc.fail(t, d)
			_, err = d.dst.ctl.Move(ctx, d.req)
			wantTampered(t, "re-POSTed move", err)
			if _, have := d.dst.reg.Get(sess); have {
				t.Fatal("the forged copy is still in the target's registry")
			}
			if err := d.dst.ctl.Route(sess, true); err == nil {
				t.Fatal("the target takes writes for a session whose move failed its chain check")
			}
			if got := movesRejected(d.dst); got <= before {
				t.Fatalf(`wf_cluster_moves_total{phase="rejected"} = %d, was %d before the drill`, got, before)
			}

			// With the source's log back to its sealed bytes, a retry
			// verifies: nothing acked was lost.
			if err := os.WriteFile(walPath, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			resp, err := d.dst.ctl.Move(ctx, d.req)
			if err != nil {
				t.Fatalf("retry after restoring the source's log: %v", err)
			}
			if resp.Events != int64(len(events)) {
				t.Fatalf("retry moved %d events, want %d", resp.Events, len(events))
			}
			if err := d.dst.ctl.Route(sess, true); err != nil {
				t.Fatalf("the verified copy refuses writes: %v", err)
			}
			sealed, _ := d.src.reg.Get(sess)
			_, srcHead, _ := sealed.ChainState()
			moved, _ := d.dst.reg.Get(sess)
			if seq, head, ok := moved.ChainState(); !ok || seq != int64(len(events)) || head != srcHead {
				t.Fatalf("target ChainState = (%d, %s, %v), want (%d, %s, true)", seq, head, ok, len(events), srcHead)
			}
		})
	}
}

// TestMoveResumesAfterTargetRestart guards honest data in the one case
// the verification reads the log from disk: a target verifies a move,
// takes more writes, and restarts before its completion has gossiped.
// Rebuilt from the static map, it learns the owner's still-pending
// override by gossip; the resume must find the sealed head in the first
// FinalSeq frames of its own log and keep every event.
func TestMoveResumesAfterTargetRestart(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner, target := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s, events := createWithEvents(t, owner.reg, sess, 400)
	final := len(events) - 50
	if _, err := s.Append(events[:final]); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := api.MoveRequest{Session: sess, Target: "n1"}
	if _, err := target.ctl.Move(ctx, req); err != nil {
		t.Fatal(err)
	}
	moved, _ := target.reg.Get(sess)
	if _, err := moved.Append(events[final:]); err != nil {
		t.Fatal(err)
	}

	if err := target.reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry(t, target.dir)
	if _, err := reg.Restore(target.dir); err != nil {
		t.Fatal(err)
	}
	target.reg = reg
	newController(t, target, nodes)
	if _, err := target.ctl.State().Merge(owner.ctl.Map()); err != nil {
		t.Fatal(err)
	}
	if err := target.ctl.Route(sess, true); err == nil {
		t.Fatal("the restarted target takes writes while the owner's override is pending")
	}

	resp, err := target.ctl.Move(ctx, req)
	if err != nil {
		t.Fatalf("resume after the restart: %v", err)
	}
	if resp.Events != int64(len(events)) {
		t.Fatalf("resume reports %d events, want %d", resp.Events, len(events))
	}
	if err := target.ctl.Route(sess, true); err != nil {
		t.Fatalf("the verified copy refuses writes: %v", err)
	}
	restored, _ := target.reg.Get(sess)
	if restored.Vertices() != int64(len(events)) {
		t.Fatalf("the restored copy holds %d events, want %d", restored.Vertices(), len(events))
	}
	_, sealedHead, _ := s.ChainState()
	if head, err := restored.ChainAt(int64(final)); err != nil || head != sealedHead {
		t.Fatalf("target's log at seq %d: (%s, %v), sealed head %s", final, head, err, sealedHead)
	}
}
