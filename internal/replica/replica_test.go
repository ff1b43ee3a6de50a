package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// fastOptions keeps the replication loops snappy for tests.
func fastOptions() Options {
	return Options{
		PollInterval:     25 * time.Millisecond,
		ReconnectBackoff: 10 * time.Millisecond,
		MaxBackoff:       100 * time.Millisecond,
	}
}

// env is one server side (registry + HTTP) of a replication pair.
type env struct {
	dir string
	reg *service.Registry
	srv *httptest.Server
}

func newEnv(t testing.TB) *env {
	t.Helper()
	dir := t.TempDir()
	return openEnv(t, dir)
}

func openEnv(t testing.TB, dir string) *env {
	t.Helper()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Restore(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(reg))
	return &env{dir: dir, reg: reg, srv: srv}
}

func (e *env) close() {
	e.srv.Close()
	_ = e.reg.Close()
}

// workload is one session's spec and generated ground truth.
type workload struct {
	name   string
	g      *spec.Grammar
	events []run.Event
	oracle *run.Run
}

func makeWorkloads(t testing.TB, size int) []*workload {
	t.Helper()
	out := []*workload{
		{name: "w-running", g: spec.MustCompile(wfspecs.RunningExample())},
		{name: "w-bioaid", g: spec.MustCompile(wfspecs.BioAID())},
		{name: "w-fig12", g: spec.MustCompile(wfspecs.Fig12())},
	}
	for i, w := range out {
		events, r, err := gen.GenerateEvents(w.g, gen.Options{TargetSize: size, Seed: int64(11 + i)})
		if err != nil {
			t.Fatal(err)
		}
		w.events, w.oracle = events, r
	}
	return out
}

// waitCaughtUp polls until every workload's follower session has
// applied the primary's committed sequence.
func waitCaughtUp(t testing.TB, primary, follower *service.Registry, ws []*workload) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		behind := ""
		for _, w := range ws {
			ps, ok := primary.Get(w.name)
			if !ok {
				t.Fatalf("primary lost session %q", w.name)
			}
			fs, fok := follower.Get(w.name)
			if !fok || fs.WALSeq() < ps.WALSeq() {
				have := int64(-1)
				if fok {
					have = fs.WALSeq()
				}
				behind = fmt.Sprintf("%s at %d/%d", w.name, have, ps.WALSeq())
				break
			}
		}
		if behind == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %s", behind)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertEquivalent verifies the follower answers Stats, Reach and
// Lineage identically to the primary for the workload, and that its
// WAL is byte-identical to the primary's.
func assertEquivalent(t testing.TB, p, f *env, ws []*workload) {
	t.Helper()
	for _, w := range ws {
		ps, _ := p.reg.Get(w.name)
		fs, ok := f.reg.Get(w.name)
		if !ok {
			t.Fatalf("follower has no session %q", w.name)
		}
		pst, fst := ps.Stats(), fs.Stats()
		if fst.Vertices != pst.Vertices || fst.LabelBits != pst.LabelBits ||
			fst.SkeletonBits != pst.SkeletonBits || fst.Class != pst.Class {
			t.Fatalf("%s: stats diverge\nprimary:  %+v\nfollower: %+v", w.name, pst, fst)
		}
		if pst.ID == "" || fst.ID != pst.ID {
			t.Fatalf("%s: identity not shared: primary %q, follower %q", w.name, pst.ID, fst.ID)
		}

		// Reachability over a dense sample of labeled vertices, against
		// both the primary and the BFS oracle.
		n := int(pst.Vertices)
		sample := make([]graph.VertexID, 0, 48)
		for i := 0; i < n && len(sample) < 48; i += 1 + n/48 {
			sample = append(sample, w.events[i].V)
		}
		for _, v := range sample {
			for _, u := range sample {
				pr, perr := reach(ps, v, u)
				fr, ferr := reach(fs, v, u)
				if (perr == nil) != (ferr == nil) || pr != fr {
					t.Fatalf("%s: reach(%d,%d): primary %v/%v follower %v/%v", w.name, v, u, pr, perr, fr, ferr)
				}
				if perr == nil && pr != w.oracle.Reaches(v, u) {
					t.Fatalf("%s: reach(%d,%d)=%v disagrees with the oracle", w.name, v, u, pr)
				}
			}
			pl, _, perr := ps.LineagePage(v, graph.None, math.MaxInt)
			fl, _, ferr := fs.LineagePage(v, graph.None, math.MaxInt)
			if (perr == nil) != (ferr == nil) || len(pl) != len(fl) {
				t.Fatalf("%s: lineage(%d) sizes %d/%d", w.name, v, len(pl), len(fl))
			}
			for i := range pl {
				if pl[i] != fl[i] {
					t.Fatalf("%s: lineage(%d)[%d] = %d vs %d", w.name, v, i, pl[i], fl[i])
				}
			}
		}

		// Byte identity: the follower's WAL is exactly the primary's.
		praw, err := os.ReadFile(filepath.Join(p.dir, w.name, "events.wal"))
		if err != nil {
			t.Fatal(err)
		}
		fraw, err := os.ReadFile(filepath.Join(f.dir, w.name, "events.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if string(praw) != string(fraw) {
			t.Fatalf("%s: follower WAL (%d bytes) is not byte-identical to the primary's (%d bytes)", w.name, len(fraw), len(praw))
		}
		// ...and it is so over batch frames, whole frames shipped and
		// teed: fewer frames than records.
		frames := 0
		for fr := wal.NewFrameReader(bytes.NewReader(praw)); ; frames++ {
			if _, err := fr.Next(); err != nil {
				break
			}
		}
		if int64(frames) >= pst.Vertices {
			t.Fatalf("%s: %d frames for %d records: the log is not batch-framed", w.name, frames, pst.Vertices)
		}
	}
}

// ingest streams a slice of each workload's events into the primary
// concurrently, in small batches, while the follower tails. Each batch
// goes in as the wire routes send it, and is logged as one frame.
func ingest(t testing.TB, reg *service.Registry, ws []*workload, lo, hi func(int) int) {
	t.Helper()
	errs := make(chan error, len(ws))
	for _, w := range ws {
		go func(w *workload) {
			s, ok := reg.Get(w.name)
			if !ok {
				errs <- fmt.Errorf("no session %q", w.name)
				return
			}
			events := w.events[lo(len(w.events)):hi(len(w.events))]
			const batch = 32
			for i := 0; i < len(events); i += batch {
				j := min(i+batch, len(events))
				recs := make([]wal.Record, 0, j-i)
				for _, ev := range events[i:j] {
					recs = append(recs, wal.RefRecord(ev))
				}
				if _, err := s.AppendRecords(recs, nil); err != nil {
					errs <- fmt.Errorf("%s: %w", w.name, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for range ws {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerEquivalence is the core replica guarantee: a follower
// tailing a live primary converges to answering every query
// identically, across sessions with different specs, skeletons and
// recursion modes — and its WAL is a byte-identical
// copy. It also restarts the follower mid-stream and checks it
// resumes from its own recovered sequence.
func TestFollowerEquivalence(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 500)
	for _, w := range ws {
		if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	f := openEnv(t, fdir)
	fol := New(p.srv.URL, f.reg, fastOptions())
	fol.Start()

	// Phase 1: first 60% of every stream, ingested while the follower
	// tails live.
	ingest(t, p.reg, ws, func(int) int { return 0 }, func(n int) int { return n * 6 / 10 })
	waitCaughtUp(t, p.reg, f.reg, ws)
	assertEquivalent(t, p, f, ws)

	st := fol.Status()
	if st.Role != "follower" || st.Primary != p.srv.URL || len(st.Sessions) != len(ws) {
		t.Fatalf("follower status = %+v", st)
	}

	// Mid-stream follower restart: stop everything, reopen the same
	// data directory, and keep going — the new follower must resume
	// from its recovered WAL sequence, not from zero.
	fol.Close()
	f.close()
	f = openEnv(t, fdir)
	for _, w := range ws {
		s, ok := f.reg.Get(w.name)
		if !ok || s.WALSeq() == 0 {
			t.Fatalf("restarted follower did not recover %q (seq %d)", w.name, s.WALSeq())
		}
	}
	fol = New(p.srv.URL, f.reg, fastOptions())
	fol.Start()
	defer fol.Close()
	defer f.close()

	// Phase 2: the rest of every stream.
	ingest(t, p.reg, ws, func(n int) int { return n * 6 / 10 }, func(n int) int { return n })
	waitCaughtUp(t, p.reg, f.reg, ws)
	assertEquivalent(t, p, f, ws)

	if err := createOn(f.srv.URL, "x"); !refusedReadOnly(err, p.srv.URL) {
		t.Fatalf("create on the follower: %v, want 421 read_only naming %s", err, p.srv.URL)
	}
}

// createOn asks the server at url, not following any redirect, to
// create a session named name.
func createOn(url, name string) error {
	_, err := client.New(url, client.WithoutRedirect()).CreateSession(context.Background(),
		client.CreateSessionRequest{Name: name, Builtin: "RunningExample"})
	return err
}

// refusedReadOnly reports whether err is a 421 read_only naming primary.
func refusedReadOnly(err error, primary string) bool {
	var ae *client.Error
	return errors.As(err, &ae) && ae.HTTPStatus == http.StatusMisdirectedRequest &&
		ae.Code == client.CodeReadOnly && ae.Detail == primary
}

// TestFollowerPromote kills the primary abruptly mid-stream, promotes
// the follower, ingests the remainder of the stream into it, and then
// proves the promoted server's WAL is a valid continuation by
// restoring it from scratch.
func TestFollowerPromote(t *testing.T) {
	p := newEnv(t)
	ws := makeWorkloads(t, 400)[:1]
	w := ws[0]
	if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	f := openEnv(t, fdir)
	defer f.close()
	fol := New(p.srv.URL, f.reg, fastOptions())
	fol.Start()

	half := len(w.events) / 2
	ingest(t, p.reg, ws, func(int) int { return 0 }, func(int) int { return half })
	waitCaughtUp(t, p.reg, f.reg, ws)

	// SIGKILL stand-in: the primary's HTTP goes away without any
	// graceful close of its registry.
	p.srv.CloseClientConnections()
	p.srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := createOn(f.srv.URL, "before"); !refusedReadOnly(err, p.srv.URL) {
		t.Fatalf("create before promote: %v, want 421 read_only naming %s", err, p.srv.URL)
	}
	if err := fol.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := createOn(f.srv.URL, "after-first"); err != nil {
		t.Fatalf("create after promote: %v, want 201", err)
	}
	if st := fol.Status(); st.Role != "primary" {
		t.Fatalf("post-promote status role = %q", st.Role)
	}
	// Idempotent: a second promote is a no-op, not an error, and must
	// not disturb the already-writable server.
	if err := fol.Promote(ctx); err != nil {
		t.Fatalf("second promote: %v", err)
	}
	if err := createOn(f.srv.URL, "after-second"); err != nil {
		t.Fatalf("create after the second promote: %v, want 201", err)
	}

	// Continued ingest straight into the promoted server.
	fs, _ := f.reg.Get(w.name)
	if got := fs.WALSeq(); got != int64(half) {
		t.Fatalf("promoted session at seq %d, want %d", got, half)
	}
	if _, err := fs.Append(w.events[half:]); err != nil {
		t.Fatalf("ingest after promote: %v", err)
	}
	for i := 0; i < len(w.events); i += 7 {
		v, u := w.events[i].V, w.events[(i*13)%len(w.events)].V
		got, err := reach(fs, v, u)
		if err != nil || got != w.oracle.Reaches(v, u) {
			t.Fatalf("promoted reach(%d,%d) = %v/%v, oracle %v", v, u, got, err, w.oracle.Reaches(v, u))
		}
	}

	// The promoted WAL must restore cleanly: replication prefix plus
	// post-promote writes form one continuous, valid log.
	f.close()
	r := openEnv(t, fdir)
	defer r.close()
	rs, ok := r.reg.Get(w.name)
	if !ok {
		t.Fatal("restore after promote lost the session")
	}
	if rs.Vertices() != int64(len(w.events)) {
		t.Fatalf("restore after promote: %d vertices, want %d", rs.Vertices(), len(w.events))
	}
	if got := rs.WALSeq(); got != int64(len(w.events)) {
		t.Fatalf("restore after promote: WAL seq %d, want %d", got, len(w.events))
	}
	for i := 0; i < len(w.events); i += 11 {
		v, u := w.events[i].V, w.events[(i*7)%len(w.events)].V
		got, err := reach(rs, v, u)
		if err != nil || got != w.oracle.Reaches(v, u) {
			t.Fatalf("restored reach(%d,%d) = %v/%v", v, u, got, err)
		}
	}

	_ = p.reg.Close()
}

// TestFollowerSessionVanished: a session deleted on the primary stops
// being tailed but keeps serving reads on the follower.
func TestFollowerSessionVanished(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 200)[:1]
	w := ws[0]
	if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
		t.Fatal(err)
	}
	ingest(t, p.reg, ws, func(int) int { return 0 }, func(n int) int { return n })

	f := openEnv(t, t.TempDir())
	defer f.close()
	fol := New(p.srv.URL, f.reg, fastOptions())
	fol.Start()
	defer fol.Close()
	waitCaughtUp(t, p.reg, f.reg, ws)

	p.reg.Delete(w.name)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fol.Status()
		if len(st.Sessions) == 1 && st.Sessions[0].Error != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("vanished session never reported: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fs, ok := f.reg.Get(w.name)
	if !ok {
		t.Fatal("follower dropped the session's local data")
	}
	if _, err := reach(fs, w.events[0].V, w.events[len(w.events)-1].V); err != nil {
		t.Fatalf("reads after primary delete: %v", err)
	}
}

// TestFollowerDetectsRecreatedSession: a session deleted and
// recreated on the primary under the same name must never have its
// new stream spliced onto the follower's old state — the identity
// mismatch stops the tail and the old data keeps serving.
func TestFollowerDetectsRecreatedSession(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 200)[:1]
	w := ws[0]
	if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
		t.Fatal(err)
	}
	ingest(t, p.reg, ws, func(int) int { return 0 }, func(n int) int { return n })

	f := openEnv(t, t.TempDir())
	defer f.close()
	fol := New(p.srv.URL, f.reg, fastOptions())
	fol.Start()
	defer fol.Close()
	waitCaughtUp(t, p.reg, f.reg, ws)
	oldVertices, _ := f.reg.Get(w.name)
	n := oldVertices.Vertices()

	// Replace the session on the primary: same name, fresh identity,
	// and a different event stream.
	p.reg.Delete(w.name)
	s2, err := p.reg.Create(w.name, w.g, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	events2, _, err := gen.GenerateEvents(w.g, gen.Options{TargetSize: 300, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Append(events2); err != nil {
		t.Fatal(err)
	}

	// The follower must refuse the new stream, not splice it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fol.Status()
		if len(st.Sessions) == 1 && strings.Contains(st.Sessions[0].Error, "replaced on the primary") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement never detected: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fs, ok := f.reg.Get(w.name)
	if !ok {
		t.Fatal("follower dropped the old session data")
	}
	if fs.Vertices() != n {
		t.Fatalf("follower state moved after replacement: %d vertices, had %d", fs.Vertices(), n)
	}
}

// reach answers one pair through the session's batch reach.
func reach(s *service.Session, v, w graph.VertexID) (bool, error) {
	a := s.ReachBatch([]api.ReachPair{{From: int32(v), To: int32(w)}})[0]
	if a.Code != "" {
		return false, api.Errorf(a.Code, "%s", a.Error)
	}
	return a.Reachable, nil
}
