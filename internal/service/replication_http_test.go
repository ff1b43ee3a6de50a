package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// newDurableTestServer builds a durable registry over a temp dir and
// serves it, returning both.
func newDurableTestServer(t testing.TB) (*Registry, string, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{})
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return reg, dir, srv
}

// ingestGenerated creates a durable session and ingests a generated
// run in batches of 64 events, a frame each as the wire routes log
// them, returning the event
// count.
func ingestGenerated(t testing.TB, reg *Registry, name string, size int, seed int64) int {
	t.Helper()
	g := spec.MustCompile(wfspecs.RunningExample())
	s, err := reg.Create(name, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(events); lo += 64 {
		var recs []wal.Record
		for _, ev := range events[lo:min(lo+64, len(events))] {
			recs = append(recs, wal.RefRecord(ev))
		}
		if _, err := s.AppendRecords(recs, nil); err != nil {
			t.Fatal(err)
		}
	}
	return len(events)
}

// TestSealedIngestAnswers421: a batch Session.Seal refuses — it passed
// the routing gate before a move's override landed — reaches the client
// as the routing refusal it is, in either body form: 421 read_only
// naming the new owner, with nothing applied, so the SDK's one-hop
// redirect may resend it there.
func TestSealedIngestAnswers421(t *testing.T) {
	reg, _, srv := newDurableTestServer(t)
	n := ingestGenerated(t, reg, "sealed", 100, 3)
	s, _ := reg.Get("sealed")
	const owner = "http://owner.example:8080"
	s.Seal(owner)
	url := srv.URL + "/v1/sessions/sealed/events"
	next := run.Event{V: graph.VertexID(n)}
	for _, tc := range []struct {
		form string
		post func() (int, string)
	}{
		{"JSON", func() (int, string) {
			return doJSON(t, "POST", url, api.EventsRequest{Events: []api.Event{api.FromRun(next)}}, nil)
		}},
		{"binary", func() (int, string) { return postBinary(t, url, frameStream(t, []run.Event{next}), nil) }},
	} {
		code, raw := tc.post()
		var resp api.ErrorResponse
		if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Err == nil {
			t.Fatalf("%s: %d %s", tc.form, code, raw)
		}
		if code != http.StatusMisdirectedRequest || resp.Err.Code != api.CodeReadOnly || resp.Err.Detail != owner || resp.Applied != 0 {
			t.Errorf("%s body into a sealed session: %d %s, want 421 read_only naming %s with nothing applied", tc.form, code, raw, owner)
		}
	}
	if got := s.Vertices(); got != int64(n) {
		t.Fatalf("the sealed session took events: %d vertices, had %d", got, n)
	}
}

// TestHTTPWALTail checks the tail endpoint ships the session's WAL
// byte-identically: the concatenated shipped frames equal the on-disk
// log, sequences are contiguous, and ?from= resumes mid-log.
func TestHTTPWALTail(t *testing.T) {
	reg, dir, srv := newDurableTestServer(t)
	n := ingestGenerated(t, reg, "tail", 200, 7)

	resp, err := http.Get(srv.URL + "/v1/sessions/tail/wal?wait=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != api.ContentTypeWAL {
		t.Fatalf("tail: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	tr := api.NewTailReader(resp.Body)
	var shipped []byte
	var last int64
	for {
		e, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != last+1 {
			t.Fatalf("sequence jumped %d -> %d", last, e.Seq)
		}
		last = e.Seq
		shipped = append(shipped, e.Frame...)
	}
	if last != int64(n) {
		t.Fatalf("shipped %d records, ingested %d", last, n)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "tail", "events.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if string(shipped) != string(onDisk) {
		t.Fatalf("shipped frames (%d bytes) are not the WAL's bytes (%d bytes)", len(shipped), len(onDisk))
	}

	// Resume mid-log, at the frame of the second batch.
	resp2, err := http.Get(srv.URL + "/v1/sessions/tail/wal?wait=false&from=65")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tr2 := api.NewTailReader(resp2.Body)
	e, err := tr2.Next()
	if err != nil || e.Seq != 65 || e.Frame == nil {
		t.Fatalf("from=65 first entry seq %d (frame %d bytes), err %v", e.Seq, len(e.Frame), err)
	}
}

// TestHTTPWALTailErrors covers the tail endpoint's typed failures.
func TestHTTPWALTailErrors(t *testing.T) {
	// A session whose log is closed cannot be tailed.
	closedReg, _, closed := newDurableTestServer(t)
	if code, raw := doJSON(t, "POST", closed.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "m", Builtin: "RunningExample"}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if err := closedReg.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(closed.URL + "/v1/sessions/m/wal")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), string(api.CodeNotDurable)) {
		t.Fatalf("tail of a closed log: %d %s", resp.StatusCode, raw)
	}

	reg, _, srv := newDurableTestServer(t)
	ingestGenerated(t, reg, "s", 50, 1)
	// from=5 falls inside the session's one batch frame: a frame is
	// shipped whole.
	for _, bad := range []string{"?from=0", "?from=x", "?wait=maybe", "?from=5"} {
		resp, err := http.Get(srv.URL + "/v1/sessions/s/wal" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tail%s: %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err = http.Get(srv.URL + "/v1/sessions/nosuch/wal")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tail of unknown session: %d", resp.StatusCode)
	}
}

// TestHTTPFollowerReadOnly checks a follower-shaped routing gate
// rejects every write with a structured read_only error naming the
// primary, while reads and tails keep working.
func TestHTTPFollowerReadOnly(t *testing.T) {
	reg, _, srv := newDurableTestServer(t)
	ingestGenerated(t, reg, "ro", 100, 3)
	const primary = "http://primary.example:8080"
	reg.SetRoute(func(_ string, write bool) error {
		if !write {
			return nil
		}
		return api.Errorf(api.CodeReadOnly, "read-only follower").WithDetail("%s", primary)
	})

	// Writes: create, ingest, delete.
	code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "x", Builtin: "RunningExample"}, nil)
	if code != http.StatusMisdirectedRequest || !strings.Contains(raw, string(api.CodeReadOnly)) || !strings.Contains(raw, primary) {
		t.Fatalf("follower create: %d %s", code, raw)
	}
	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions/ro/events", api.EventsRequest{}, nil)
	if code != http.StatusMisdirectedRequest || !strings.Contains(raw, primary) {
		t.Fatalf("follower ingest: %d %s", code, raw)
	}
	code, raw = doJSON(t, "DELETE", srv.URL+"/v1/sessions/ro", nil, nil)
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("follower delete: %d %s", code, raw)
	}
	if _, ok := reg.Get("ro"); !ok {
		t.Fatal("read-only delete actually deleted the session")
	}

	// Reads still serve.
	var st Stats
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/sessions/ro", nil, &st); code != http.StatusOK || st.Vertices == 0 {
		t.Fatalf("follower stats: %d %s", code, raw)
	}
	resp, err := http.Get(srv.URL + "/v1/sessions/ro/wal?wait=false")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower tail (chained replication): %d", resp.StatusCode)
	}

	// Clearing the gate, as a promote does, serves writes again.
	reg.SetRoute(nil)
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "x", Builtin: "RunningExample"}, nil); code != http.StatusCreated {
		t.Fatalf("post-promote create: %d %s", code, raw)
	}
}

// TestHTTPReplicationStatusAndPromote covers the default (primary)
// status shape and promote on a server that is not a follower.
func TestHTTPReplicationStatusAndPromote(t *testing.T) {
	reg, _, srv := newDurableTestServer(t)
	n := ingestGenerated(t, reg, "st", 120, 5)

	var status api.ReplicationStatus
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/replication/status", nil, &status); code != http.StatusOK {
		t.Fatalf("status: %d %s", code, raw)
	}
	if status.Role != api.RolePrimary || len(status.Sessions) != 1 {
		t.Fatalf("status = %+v", status)
	}
	if s := status.Sessions[0]; s.Name != "st" || s.WALSeq != int64(n) {
		t.Fatalf("session status = %+v, want WALSeq %d", s, n)
	}
	if s, _ := reg.Get("st"); s == nil {
		t.Fatal("session st is gone")
	} else if _, err := s.Integrity(); err != nil {
		t.Fatalf("reported session has no open log: %v", err)
	}

	// Promote is idempotent: on a server that is already writable it
	// changes nothing and answers the current status.
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/replication/promote", nil, &status); code != http.StatusOK ||
		status.Role != api.RolePrimary {
		t.Fatalf("promote a primary: %d %s", code, raw)
	}
}

// TestHTTPSessionSpec checks the spec endpoint round-trips the
// session's specification.
func TestHTTPSessionSpec(t *testing.T) {
	reg, _, srv := newDurableTestServer(t)
	ingestGenerated(t, reg, "sp", 30, 2)
	resp, err := http.Get(srv.URL + "/v1/sessions/sp/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != api.ContentTypeXML {
		t.Fatalf("spec: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sp, err := wfxml.DecodeSpec(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Compile(sp); err != nil {
		t.Fatalf("served spec does not compile: %v", err)
	}
}

// TestHTTPPromoteIdempotent checks POST /v1/replication/promote is
// safe to re-POST: a server without replication hooks — never a
// follower, or promoted by an earlier call — answers 200 with its
// current status instead of failing the retry, exactly what blind
// failover tooling needs. A follower's promote and re-promote are
// replica.TestFollowerPromote's.
func TestHTTPPromoteIdempotent(t *testing.T) {
	_, _, plain := newDurableTestServer(t)
	for i := 0; i < 3; i++ {
		var st api.ReplicationStatus
		if code, raw := doJSON(t, "POST", plain.URL+"/v1/replication/promote", nil, &st); code != http.StatusOK || st.Role != api.RolePrimary {
			t.Fatalf("promote #%d on a plain primary: %d %s (role %q)", i+1, code, raw, st.Role)
		}
	}
}
