package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/client"
	"wfreach/internal/replica"
	"wfreach/internal/service"
)

// httptestPair is one durable registry served over HTTP.
type httptestPair struct {
	reg *service.Registry
	srv *httptest.Server
}

func newDurablePair(t *testing.T) *httptestPair {
	t.Helper()
	reg := newRegistry(t)
	srv := httptest.NewServer(service.NewHandler(reg))
	t.Cleanup(srv.Close)
	return &httptestPair{reg: reg, srv: srv}
}

// replicationPair boots a durable primary plus a tailing follower,
// both served over HTTP, and returns their clients.
func replicationPair(t *testing.T) (primary, follower *httptestPair) {
	t.Helper()
	p := newDurablePair(t)
	f := newDurablePair(t)
	fol := replica.New(p.srv.URL, f.reg, replica.Options{
		PollInterval: 25 * time.Millisecond,
	})
	fol.Start()
	t.Cleanup(fol.Close)
	return p, f
}

// TestWriteRedirect: a write sent to a follower is transparently
// re-sent to the primary the rejection names; with the redirect
// disabled the typed error surfaces instead, carrying the primary.
func TestWriteRedirect(t *testing.T) {
	p, f := replicationPair(t)
	ctx := context.Background()

	// The follower's client, writes pointed at the wrong server.
	fc := client.New(f.srv.URL)
	st, err := fc.CreateSession(ctx, client.CreateSessionRequest{Name: "redir", Builtin: "RunningExample"})
	if err != nil {
		t.Fatalf("redirected create failed: %v", err)
	}
	if st.Name != "redir" {
		t.Fatalf("create stats = %+v", st)
	}
	// The session landed on the primary, not the follower's registry.
	if _, ok := p.reg.Get("redir"); !ok {
		t.Fatal("redirected create did not reach the primary")
	}

	events, r := generate(t, "RunningExample", 200, 5)
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	if _, err := fc.IngestFrames(ctx, "redir", wire); err != nil {
		t.Fatalf("redirected binary ingest failed: %v", err)
	}

	// The follower replicates what the redirect wrote, and answers
	// reads itself.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if s, ok := f.reg.Get("redir"); ok && s.Vertices() == int64(len(events)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never replicated the redirected writes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err := fc.Reach(ctx, "redir", int32(events[0].V), int32(events[len(events)-1].V))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Reaches(events[0].V, events[len(events)-1].V); got != want {
		t.Fatalf("replicated reach = %v, want %v", got, want)
	}

	// Redirect disabled: the typed rejection surfaces, and the primary
	// hint is recoverable via errors.As / RedirectFromError.
	nc := client.New(f.srv.URL, client.WithoutRedirect())
	_, err = nc.CreateSession(ctx, client.CreateSessionRequest{Name: "nope", Builtin: "RunningExample"})
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != client.CodeReadOnly {
		t.Fatalf("undirected create = %v, want CodeReadOnly", err)
	}
	if hint, ok := client.RedirectFromError(err); !ok || hint != p.srv.URL {
		t.Fatalf("RedirectFromError = %q/%v, want %q", hint, ok, p.srv.URL)
	}
	if _, ok := p.reg.Get("nope"); ok {
		t.Fatal("disabled redirect still wrote to the primary")
	}
}

// TestRedirectFollowedOnce: a plain Client resends a request refused
// with read_only or wrong_node to the URL the refusal names, reads as
// well as writes, and only once — a second refusal surfaces. With
// WithoutRedirect both refusals surface with their detail.
func TestRedirectFollowedOnce(t *testing.T) {
	// refuse answers every request with a 421 of the code, naming *to.
	hits := map[string]*atomic.Int64{}
	refuse := func(name string, code client.ErrorCode, to *string) *httptest.Server {
		hits[name] = new(atomic.Int64)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[name].Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": client.Error{Code: code, Message: "not here", Detail: *to}})
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	owner := newDurablePair(t)
	var ownerURL, wrongURL string
	wrong := refuse("wrong_node", client.CodeWrongNode, &ownerURL)
	ro := refuse("read_only", client.CodeReadOnly, &ownerURL)
	chain := refuse("chain", client.CodeReadOnly, &wrongURL)
	ownerURL, wrongURL = owner.srv.URL, wrong.URL
	ctx := context.Background()

	// A write refused with read_only and a read refused with wrong_node
	// each land on the owner.
	if _, err := client.New(ro.URL).CreateSession(ctx, client.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}); err != nil {
		t.Fatalf("create via a read_only refusal: %v", err)
	}
	if st, err := client.New(wrong.URL).Session(ctx, "s"); err != nil || st.Name != "s" {
		t.Fatalf("stats via a wrong_node refusal: %+v, %v", st, err)
	}
	// A refusal naming another refusing server is followed once: the
	// second refusal is the answer.
	_, err := client.New(chain.URL).Session(ctx, "s")
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != client.CodeWrongNode || ae.Detail != ownerURL {
		t.Fatalf("two refusals in a row: %v, want the second one (wrong_node naming the owner)", err)
	}
	if hits["chain"].Load() != 1 || hits["wrong_node"].Load() != 2 || hits["read_only"].Load() != 1 {
		t.Fatalf("refusing servers hit %d/%d/%d times, want chain 1, wrong_node 2, read_only 1",
			hits["chain"].Load(), hits["wrong_node"].Load(), hits["read_only"].Load())
	}

	// Redirect disabled: each refusal surfaces with its code and detail.
	for _, tc := range []struct {
		url  string
		code client.ErrorCode
	}{{ro.URL, client.CodeReadOnly}, {wrong.URL, client.CodeWrongNode}} {
		_, err := client.New(tc.url, client.WithoutRedirect()).Session(ctx, "s")
		if !errors.As(err, &ae) || ae.Code != tc.code || ae.HTTPStatus != http.StatusMisdirectedRequest {
			t.Fatalf("WithoutRedirect: %v, want %s", err, tc.code)
		}
		if u, ok := client.RedirectFromError(err); !ok || u != ownerURL {
			t.Fatalf("WithoutRedirect: RedirectFromError = %q/%v, want %q", u, ok, ownerURL)
		}
	}
}

// TestPartlyAppliedRefusalIsNotResent: a 421 that carries applied > 0
// — a seal that landed between the chunks of a binary body — surfaces
// with its code, detail and progress, and is not resent to the server
// it names, which would apply the chunks before it twice.
func TestPartlyAppliedRefusalIsNotResent(t *testing.T) {
	var named, refusing atomic.Int64
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		named.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(other.Close)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refusing.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":   client.Error{Code: client.CodeReadOnly, Message: "moved", Detail: other.URL},
			"applied": 5,
		})
	}))
	t.Cleanup(srv.Close)
	var zero int32
	_, err := client.New(srv.URL).IngestFrames(context.Background(), "s", []client.Event{{V: 0, Graph: &zero, Vertex: &zero}})
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != client.CodeReadOnly || ae.Detail != other.URL || ae.Applied != 5 {
		t.Fatalf("IngestFrames = %v, want the read_only refusal with 5 applied", err)
	}
	if refusing.Load() != 1 || named.Load() != 0 {
		t.Fatalf("the refusing server was hit %d times and the named one %d, want 1 and 0", refusing.Load(), named.Load())
	}
}

// TestTailWALClient drives the tail endpoint through the SDK: history
// without waiting, resumption from a sequence, and typed errors for
// untailable sessions.
func TestTailWALClient(t *testing.T) {
	p := newDurablePair(t)
	ctx := context.Background()
	c := client.New(p.srv.URL)

	if _, err := c.CreateSession(ctx, client.CreateSessionRequest{Name: "tw", Builtin: "RunningExample"}); err != nil {
		t.Fatal(err)
	}
	events, _ := generate(t, "RunningExample", 150, 9)
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	// Two batches, two frames: the tail ships each whole, its records
	// numbered one by one.
	half := len(wire) / 2
	for _, batch := range [][]client.Event{wire[:half], wire[half:]} {
		if _, err := c.IngestFrames(ctx, "tw", batch); err != nil {
			t.Fatal(err)
		}
	}

	tail, err := c.TailWAL(ctx, "tw", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var last int64
	var opens []int64
	for {
		e, err := tail.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != last+1 {
			t.Fatalf("entry seq %d after %d", e.Seq, last)
		}
		if e.Frame != nil {
			opens = append(opens, e.Seq)
		}
		last = e.Seq
	}
	if last != int64(len(events)) {
		t.Fatalf("tailed %d entries, want %d", last, len(events))
	}
	if !slices.Equal(opens, []int64{1, int64(half) + 1}) {
		t.Fatalf("frames open at seqs %v, want 1 and %d", opens, half+1)
	}

	mid, err := c.TailWAL(ctx, "tw", int64(half)+1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	e, err := mid.Next()
	if err != nil || e.Seq != int64(half)+1 || e.Frame == nil {
		t.Fatalf("resume at %d got seq %d (frame %d bytes), err %v", half+1, e.Seq, len(e.Frame), err)
	}
	// A frame is shipped whole: a tail cannot start inside one.
	var ae *client.Error
	if _, err := c.TailWAL(ctx, "tw", int64(half)-5, false); !errors.As(err, &ae) || ae.Code != client.CodeBadRequest {
		t.Fatalf("tail from inside a frame = %v, want CodeBadRequest", err)
	}

	// A session whose log is closed is not tailable.
	closed := newDurablePair(t)
	mc := client.New(closed.srv.URL)
	if _, err := mc.CreateSession(ctx, client.CreateSessionRequest{Name: "m", Builtin: "RunningExample"}); err != nil {
		t.Fatal(err)
	}
	if err := closed.reg.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = mc.TailWAL(ctx, "m", 1, false)
	if !errors.As(err, &ae) || ae.Code != client.CodeNotDurable {
		t.Fatalf("tail of a closed log = %v, want CodeNotDurable", err)
	}
}

// TestReplicationStatusAndSpec exercises the status, spec and promote
// SDK calls against a live pair.
func TestReplicationStatusAndSpec(t *testing.T) {
	p, f := replicationPair(t)
	ctx := context.Background()
	pc, fc := client.New(p.srv.URL), client.New(f.srv.URL)

	if _, err := pc.CreateSession(ctx, client.CreateSessionRequest{Name: "s", Builtin: "BioAID"}); err != nil {
		t.Fatal(err)
	}
	events, _ := generate(t, "BioAID", 300, 2)
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	if _, err := pc.IngestFrames(ctx, "s", wire); err != nil {
		t.Fatal(err)
	}

	pst, err := pc.ReplicationStatus(ctx)
	if err != nil || pst.Role != client.RolePrimary || len(pst.Sessions) != 1 {
		t.Fatalf("primary status %+v, %v", pst, err)
	}
	if pst.Sessions[0].WALSeq != int64(len(events)) {
		t.Fatalf("primary WALSeq = %d, want %d", pst.Sessions[0].WALSeq, len(events))
	}

	// Wait for the follower to drain, via the status API alone.
	deadline := time.Now().Add(15 * time.Second)
	for {
		fst, err := fc.ReplicationStatus(ctx)
		if err == nil && fst.Role == client.RoleFollower && fst.Primary == p.srv.URL &&
			len(fst.Sessions) == 1 && fst.Sessions[0].WALSeq == int64(len(events)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower status never converged: %+v, %v", fst, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	raw, err := fc.SessionSpec(ctx, "s")
	if err != nil || len(raw) == 0 {
		t.Fatalf("spec: %d bytes, %v", len(raw), err)
	}

	// Promote over the wire; the follower reports itself primary after.
	st, err := fc.Promote(ctx)
	if err != nil || st.Role != client.RolePrimary {
		t.Fatalf("promote: %+v, %v", st, err)
	}
	// Promote is idempotent: a re-POST reports the server already
	// writable instead of failing the retry.
	if st, err := fc.Promote(ctx); err != nil || st.Role != client.RolePrimary {
		t.Fatalf("second promote: %+v, %v", st, err)
	}
	if _, err := fc.CreateSession(ctx, client.CreateSessionRequest{Name: "after", Builtin: "RunningExample"}); err != nil {
		t.Fatalf("create on promoted server: %v", err)
	}
	if _, ok := f.reg.Get("after"); !ok {
		t.Fatal("post-promote create did not land on the promoted server")
	}
}
