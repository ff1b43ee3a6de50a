package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wfreach"
	"wfreach/client"
	"wfreach/internal/gen"
	"wfreach/internal/service"
)

func newServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(service.NewHandler(service.NewRegistry()))
	t.Cleanup(srv.Close)
	return srv
}

func generate(t testing.TB, builtin string, size int, seed int64) ([]wfreach.Event, *wfreach.Run) {
	t.Helper()
	s, ok := service.Builtin(builtin)
	if !ok {
		t.Fatalf("no builtin %s", builtin)
	}
	g, err := wfreach.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return events, r
}

// TestLifecycleE2E drives the full v1 surface through the SDK:
// create, batch ingest, streaming ingest, single and batch
// reach (checked against the BFS oracle), paginated lineage, stats,
// list, delete.
func TestLifecycleE2E(t *testing.T) {
	srv := newServer(t)
	c := client.New(srv.URL)
	ctx := context.Background()

	st, err := c.CreateSession(ctx, client.CreateSessionRequest{Name: "a", Builtin: "BioAID"})
	if err != nil || st.Name != "a" || st.Vertices != 0 {
		t.Fatalf("create: %+v, %v", st, err)
	}

	events, r := generate(t, "BioAID", 1200, 3)
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}

	// One batch for the first half, the stream for the rest.
	half := len(wire) / 2
	er, err := c.IngestFrames(ctx, "a", wire[:half])
	if err != nil || er.Applied != half {
		t.Fatalf("batch ingest: %+v, %v", er, err)
	}
	stream := c.Stream(ctx, "a", client.StreamOptions{BatchSize: 128})
	for _, ev := range wire[half:] {
		if err := stream.Send(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stream.Applied(); got != int64(len(wire)-half) {
		t.Fatalf("stream applied %d, want %d", got, len(wire)-half)
	}
	if got := stream.Vertices(); got != int64(len(wire)) {
		t.Fatalf("stream vertices %d, want %d", got, len(wire))
	}

	// Single and batch reach agree with the oracle.
	var pairs []client.ReachPair
	for i := 0; i < 128; i++ {
		pairs = append(pairs, client.ReachPair{
			From: int32(events[(i*11)%len(events)].V), To: int32(events[(i*29)%len(events)].V)})
	}
	answers, err := c.ReachBatch(ctx, "a", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		if ans.Code != "" {
			t.Fatalf("pair %d errored: %+v", i, ans)
		}
		if want := r.Reaches(wfreach.VertexID(ans.From), wfreach.VertexID(ans.To)); ans.Reachable != want {
			t.Fatalf("pair %d: %v, oracle %v", i, ans.Reachable, want)
		}
	}
	ok, err := c.Reach(ctx, "a", pairs[0].From, pairs[0].To)
	if err != nil || ok != answers[0].Reachable {
		t.Fatalf("single reach: %v, %v", ok, err)
	}

	// Lineage, walked page by page, equals the BFS closure.
	sink := int32(events[len(events)-1].V)
	var full []int32
	for _, ev := range events {
		if r.Reaches(ev.V, wfreach.VertexID(sink)) {
			full = append(full, int32(ev.V))
		}
	}
	slices.Sort(full)
	page, err := c.LineagePage(ctx, "a", sink, "", 5)
	if err != nil || len(page.Ancestors) != 5 || page.NextCursor == "" {
		t.Fatalf("first page: %+v, %v", page, err)
	}
	all, err := c.Lineage(ctx, "a", sink)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(all, full) {
		t.Fatalf("paginated %d ancestors, BFS closure %d", len(all), len(full))
	}

	// Stats and list see the session; delete removes it.
	if st, err := c.Session(ctx, "a"); err != nil || st.Vertices != int64(len(events)) {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	if ss, err := c.Sessions(ctx); err != nil || len(ss) != 1 {
		t.Fatalf("list: %+v, %v", ss, err)
	}
	if err := c.DeleteSession(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if ss, err := c.Sessions(ctx); err != nil || len(ss) != 0 {
		t.Fatalf("list after delete: %+v, %v", ss, err)
	}
}

// TestTypedErrors exercises the errors.As contract on the main error
// paths.
func TestTypedErrors(t *testing.T) {
	srv := newServer(t)
	c := client.New(srv.URL)
	ctx := context.Background()

	_, err := c.Session(ctx, "ghost")
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != client.CodeSessionNotFound || ae.HTTPStatus != http.StatusNotFound {
		t.Fatalf("missing session error = %v (%+v)", err, ae)
	}

	if _, err := c.CreateSession(ctx, client.CreateSessionRequest{Name: "x", Builtin: "zap"}); !errors.As(err, &ae) || ae.Code != client.CodeUnknownBuiltin {
		t.Fatalf("unknown builtin error = %v", err)
	}

	c.CreateSession(ctx, client.CreateSessionRequest{Name: "s", Builtin: "RunningExample"})
	if _, err := c.CreateSession(ctx, client.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}); !errors.As(err, &ae) || ae.Code != client.CodeSessionExists || ae.HTTPStatus != http.StatusConflict {
		t.Fatalf("duplicate create error = %v", err)
	}

	// A pair-level failure surfaces as a typed error from Reach.
	if _, err := c.Reach(ctx, "s", 0, 12345); !errors.As(err, &ae) || ae.Code != client.CodeVertexNotLabeled {
		t.Fatalf("unlabeled reach error = %v", err)
	}

	// A malformed ingest event is a typed bad_event.
	if _, err := c.IngestFrames(ctx, "s", []client.Event{{V: 1}}); !errors.As(err, &ae) || ae.Code != client.CodeBadEvent {
		t.Fatalf("bad event error = %v", err)
	}
}

// TestRetryOn5xx: transient server failures on read-only calls are
// retried with backoff; ingest is never replayed.
func TestRetryOn5xx(t *testing.T) {
	inner := service.NewHandler(service.NewRegistry())
	var gets, posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && gets.Add(1) <= 2 {
			http.Error(w, "wedged", http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions/s/events" {
			posts.Add(1)
			http.Error(w, "wedged", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.WithRetry(3, time.Millisecond))
	ctx := context.Background()
	if _, err := c.Sessions(ctx); err != nil {
		t.Fatalf("GET did not survive two 503s: %v", err)
	}
	if got := gets.Load(); got != 3 {
		t.Fatalf("GET attempts = %d, want 3", got)
	}

	c.CreateSession(ctx, client.CreateSessionRequest{Name: "s", Builtin: "RunningExample"})
	_, err := c.IngestFrames(ctx, "s", []client.Event{{V: 0, Name: "x"}})
	var ae *client.Error
	if !errors.As(err, &ae) || ae.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("ingest error = %v", err)
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("ingest attempts = %d, want 1 (not idempotent, never retried)", got)
	}
}

// TestStreamFlushing covers both flush triggers: batch size and the
// interval timer.
func TestStreamFlushing(t *testing.T) {
	srv := newServer(t)
	c := client.New(srv.URL)
	ctx := context.Background()
	c.CreateSession(ctx, client.CreateSessionRequest{Name: "s", Builtin: "RunningExample"})
	events, _ := generate(t, "RunningExample", 300, 5)

	// Size-triggered: after 2*batch sends, at least 2 batches are out.
	stream := c.Stream(ctx, "s", client.StreamOptions{BatchSize: 64})
	for _, ev := range events[:128] {
		if err := stream.Send(client.FromRun(ev)); err != nil {
			t.Fatal(err)
		}
	}
	if got := stream.Applied(); got != 128 {
		t.Fatalf("applied %d after two full batches, want 128", got)
	}

	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}

	// Interval-triggered: a short tail under the batch size flushes on
	// the timer without Close.
	timed := c.Stream(ctx, "s", client.StreamOptions{BatchSize: 1 << 20, FlushInterval: 10 * time.Millisecond})
	defer timed.Close()
	for _, ev := range events[128:140] {
		if err := timed.Send(client.FromRun(ev)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for timed.Applied() != 12 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flush never happened: applied %d", timed.Applied())
		}
		time.Sleep(time.Millisecond)
	}

	// A poisoned stream (delete the session mid-stream) reports its
	// sticky error from Send and Close.
	poisoned := c.Stream(ctx, "s", client.StreamOptions{BatchSize: 4})
	if err := c.DeleteSession(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for _, ev := range events[140:160] {
		if firstErr = poisoned.Send(client.FromRun(ev)); firstErr != nil {
			break
		}
	}
	var ae *client.Error
	if !errors.As(firstErr, &ae) || ae.Code != client.CodeSessionNotFound {
		t.Fatalf("poisoned stream error = %v", firstErr)
	}
	if err := poisoned.Close(); !errors.As(err, &ae) {
		t.Fatalf("Close after poison = %v", err)
	}
}

// TestPartialIngestReportsApplied: a batch that fails mid-way reports
// the durably applied prefix on the typed error, and a Stream keeps
// Applied() accurate across such a failure.
func TestPartialIngestReportsApplied(t *testing.T) {
	srv := newServer(t)
	c := client.New(srv.URL)
	ctx := context.Background()
	c.CreateSession(ctx, client.CreateSessionRequest{Name: "p", Builtin: "RunningExample"})
	events, _ := generate(t, "RunningExample", 120, 9)
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}

	// Index 10 duplicates an earlier vertex: the server applies 10.
	bad := append(append([]client.Event{}, wire[:10]...), wire[3])
	_, err := c.IngestFrames(ctx, "p", bad)
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != client.CodeBadEvent || ae.Applied != 10 {
		t.Fatalf("partial batch ingest error = %v (applied %d, want 10)", err, ae.Applied)
	}

	// Same through the binary stream: Applied() counts the prefix.
	stream := c.Stream(ctx, "p", client.StreamOptions{BatchSize: 1 << 20})
	for _, ev := range wire[10:20] {
		if err := stream.Send(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.Send(wire[12]); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := stream.Flush(); err == nil {
		t.Fatal("duplicate should fail the flush")
	}
	if got := stream.Applied(); got != 10 {
		t.Fatalf("stream applied %d after partial flush, want 10", got)
	}
	stream.Close()

	// The session really holds exactly the applied prefix.
	if st, err := c.Session(ctx, "p"); err != nil || st.Vertices != 20 {
		t.Fatalf("session after partial batches: %+v, %v", st, err)
	}
}
