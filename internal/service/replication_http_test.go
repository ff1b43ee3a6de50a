package service

import (
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
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// newDurableTestServer builds a durable registry over a temp dir and
// serves it, returning both.
func newDurableTestServer(t testing.TB) (*Registry, string, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	reg, err := NewDurableRegistry(DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reg.Close() })
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return reg, dir, srv
}

// ingestGenerated creates a durable session and ingests a generated
// run, returning the events.
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
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}
	return len(events)
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

	// Resume mid-log.
	resp2, err := http.Get(srv.URL + "/v1/sessions/tail/wal?wait=false&from=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tr2 := api.NewTailReader(resp2.Body)
	e, err := tr2.Next()
	if err != nil || e.Seq != 5 {
		t.Fatalf("from=5 first entry seq %d, err %v", e.Seq, err)
	}
}

// TestHTTPWALTailErrors covers the tail endpoint's typed failures.
func TestHTTPWALTailErrors(t *testing.T) {
	// Memory sessions cannot be tailed.
	mem := httptest.NewServer(NewHandler(NewRegistry()))
	defer mem.Close()
	if code, raw := doJSON(t, "POST", mem.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "m", Builtin: "RunningExample"}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	resp, err := http.Get(mem.URL + "/v1/sessions/m/wal")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), string(api.CodeNotDurable)) {
		t.Fatalf("memory tail: %d %s", resp.StatusCode, raw)
	}

	reg, _, srv := newDurableTestServer(t)
	ingestGenerated(t, reg, "s", 50, 1)
	for _, bad := range []string{"?from=0", "?from=x", "?wait=maybe"} {
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

// TestHTTPFollowerReadOnly checks follower mode rejects every write
// with a structured read_only error naming the primary, while reads
// and tails keep working.
func TestHTTPFollowerReadOnly(t *testing.T) {
	reg, _, srv := newDurableTestServer(t)
	ingestGenerated(t, reg, "ro", 100, 3)
	const primary = "http://primary.example:8080"
	reg.SetFollower(primary)

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

	// Promote clears the gate.
	reg.Promote()
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "x", Builtin: "RunningExample"}, nil); code != http.StatusCreated {
		t.Fatalf("post-promote create: %d %s", code, raw)
	}
}

// TestHTTPReplicationStatusAndPromote covers the default (primary)
// status shape and the promote endpoint's not-a-follower conflict.
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
	if s := status.Sessions[0]; s.Name != "st" || s.WALSeq != int64(n) || !s.Durable {
		t.Fatalf("session status = %+v, want WALSeq %d", s, n)
	}

	// Promote is idempotent: on a server that is already writable it
	// changes nothing and answers the current status.
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/replication/promote", nil, &status); code != http.StatusOK ||
		status.Role != api.RolePrimary {
		t.Fatalf("promote a primary: %d %s", code, raw)
	}

	// Follower without hooks: status is honest about the role, promote
	// flips the registry.
	reg.SetFollower("http://p.example")
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/replication/status", nil, &status); code != http.StatusOK {
		t.Fatal("follower status")
	}
	if status.Role != api.RoleFollower || status.Primary != "http://p.example" {
		t.Fatalf("follower status = %+v", status)
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/replication/promote", nil, &status); code != http.StatusOK || status.Role != api.RolePrimary {
		t.Fatalf("promote: %d %s", code, raw)
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
// safe to re-POST: a server that is already writable (never a
// follower, or promoted by an earlier call) answers 200 with its
// current status instead of failing the retry — exactly what blind
// failover tooling needs.
func TestHTTPPromoteIdempotent(t *testing.T) {
	// A registry marked follower with no replica hooks: promote flips
	// it writable; promoting again (and again) stays 200/primary.
	reg := NewRegistry()
	reg.SetFollower("http://dead-primary:9999")
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	for i := 0; i < 3; i++ {
		var st api.ReplicationStatus
		if code, raw := doJSON(t, "POST", srv.URL+"/v1/replication/promote", nil, &st); code != http.StatusOK {
			t.Fatalf("promote #%d: %d %s", i+1, code, raw)
		} else if st.Role != api.RolePrimary {
			t.Fatalf("promote #%d: role %q, want primary", i+1, st.Role)
		}
	}
	if _, ok := reg.FollowerPrimary(); ok {
		t.Fatal("registry still in follower mode after promote")
	}

	// A plain primary that was never a follower: promote is a no-op,
	// not an error.
	plain := httptest.NewServer(NewHandler(NewRegistry()))
	defer plain.Close()
	var st api.ReplicationStatus
	if code, raw := doJSON(t, "POST", plain.URL+"/v1/replication/promote", nil, &st); code != http.StatusOK || st.Role != api.RolePrimary {
		t.Fatalf("promote on plain primary: %d %s (role %q)", code, raw, st.Role)
	}
}
