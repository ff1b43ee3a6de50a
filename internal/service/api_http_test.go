package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
)

// decodeError parses a structured error response body.
func decodeError(t testing.TB, raw string) *api.Error {
	t.Helper()
	var resp api.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Err == nil {
		t.Fatalf("body is not a structured error: %q (%v)", raw, err)
	}
	return resp.Err
}

func expectCode(t testing.TB, wantStatus int, wantCode api.ErrorCode, gotStatus int, raw string) {
	t.Helper()
	if gotStatus != wantStatus {
		t.Fatalf("status = %d, want %d (%s)", gotStatus, wantStatus, raw)
	}
	if e := decodeError(t, raw); e.Code != wantCode {
		t.Fatalf("code = %s, want %s (%s)", e.Code, wantCode, raw)
	}
}

// TestHTTPMethodTable drives every route × verb combination: wrong
// verbs on known paths must be 405 with an Allow header (never a 404),
// and allowed verbs must dispatch. The same paths without the /v1
// prefix are not routes: every verb gets the structured 404.
func TestHTTPMethodTable(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}, nil)

	routes := []struct {
		path  string
		allow string // the exact Allow header for disallowed verbs; empty: not a route
	}{
		{"/sessions", ""},
		{"/sessions/s", ""},
		{"/sessions/s/events", ""},
		{"/sessions/s/reach", ""},
		{"/sessions/s/lineage", ""},
		{"/v1/sessions", "GET, HEAD, POST"},
		{"/v1/sessions/s", "DELETE, GET, HEAD"},
		{"/v1/sessions/s/stats", "GET, HEAD"},
		{"/v1/sessions/s/events", "POST"},
		{"/v1/sessions/s/reach", "POST"},
		{"/v1/sessions/s/lineage", "GET, HEAD"},
	}
	verbs := []string{"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS"}
	inAllow := func(allow, verb string) bool {
		for _, a := range splitComma(allow) {
			if a == verb {
				return true
			}
		}
		return false
	}
	for _, rt := range routes {
		for _, verb := range verbs {
			// DELETE /sessions/s would tear down the shared fixture; it is
			// covered by the lifecycle test.
			if verb == "DELETE" && inAllow(rt.allow, verb) {
				continue
			}
			req, err := http.NewRequest(verb, srv.URL+rt.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rt.allow == "" {
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s %s = %d, want 404 (%s)", verb, rt.path, resp.StatusCode, raw)
				} else if verb != "HEAD" && decodeError(t, string(raw)).Code != api.CodeNotFound {
					t.Errorf("%s %s: %s, want code %s", verb, rt.path, raw, api.CodeNotFound)
				}
				continue
			}
			if inAllow(rt.allow, verb) {
				if resp.StatusCode == http.StatusMethodNotAllowed || resp.StatusCode == http.StatusNotFound {
					t.Errorf("%s %s = %d, want dispatch (%s)", verb, rt.path, resp.StatusCode, raw)
				}
				continue
			}
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405 (%s)", verb, rt.path, resp.StatusCode, raw)
				continue
			}
			if got := resp.Header.Get("Allow"); got != rt.allow {
				t.Errorf("%s %s Allow = %q, want %q", verb, rt.path, got, rt.allow)
			}
			if verb != "HEAD" { // HEAD responses have no body to decode
				if e := decodeError(t, string(raw)); e.Code != api.CodeMethodNotAllowed {
					t.Errorf("%s %s code = %s", verb, rt.path, e.Code)
				}
			}
		}
	}
}

func splitComma(s string) []string {
	var out []string
	for _, part := range bytes.Split([]byte(s), []byte(", ")) {
		out = append(out, string(part))
	}
	return out
}

// TestHTTPErrorCodes asserts the machine-readable code on every
// client-visible error path — clients dispatch on codes, so each one
// is contract.
func TestHTTPErrorCodes(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}, nil)

	code, raw := doJSON(t, "GET", srv.URL+"/v1/nope", nil, nil)
	expectCode(t, 404, api.CodeNotFound, code, raw)

	code, raw = doJSON(t, "GET", srv.URL+"/v1/sessions/ghost", nil, nil)
	expectCode(t, 404, api.CodeSessionNotFound, code, raw)

	code, raw = doJSON(t, "DELETE", srv.URL+"/v1/sessions/ghost", nil, nil)
	expectCode(t, 404, api.CodeSessionNotFound, code, raw)

	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}, nil)
	expectCode(t, 409, api.CodeSessionExists, code, raw)

	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "x", Builtin: "zap"}, nil)
	expectCode(t, 400, api.CodeUnknownBuiltin, code, raw)
	if e := decodeError(t, raw); e.Detail == "" {
		t.Fatalf("unknown_builtin should detail the valid names: %s", raw)
	}

	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "x", SpecXML: "<junk"}, nil)
	expectCode(t, 400, api.CodeBadSpec, code, raw)

	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "x"}, nil)
	expectCode(t, 400, api.CodeBadRequest, code, raw)

	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	expectCode(t, 400, api.CodeBadJSON, resp.StatusCode, string(raw2))

	// Query-side codes. Reach is asked by POST only; the one-pair GET
	// form is retired.
	code, raw = doJSON(t, "GET", srv.URL+"/v1/sessions/s/reach?from=0&to=0", nil, nil)
	expectCode(t, 405, api.CodeMethodNotAllowed, code, raw)

	code, raw = doJSON(t, "GET", srv.URL+"/v1/sessions/s/lineage?of=zap", nil, nil)
	expectCode(t, 400, api.CodeBadVertex, code, raw)

	code, raw = doJSON(t, "GET", srv.URL+"/v1/sessions/s/lineage?of=0&limit=-3", nil, nil)
	expectCode(t, 400, api.CodeBadRequest, code, raw)

	code, raw = doJSON(t, "GET", srv.URL+"/v1/sessions/s/lineage?of=0&cursor=bad", nil, nil)
	expectCode(t, 400, api.CodeBadVertex, code, raw)

	// Ingest-side codes.
	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions/s/events",
		api.EventsRequest{Events: []api.Event{{V: 1}}}, nil)
	expectCode(t, 400, api.CodeBadEvent, code, raw)
}

func frameStream(t testing.TB, events []run.Event) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, ev := range events {
		if buf, err = api.AppendFrame(buf, api.FromRun(ev)); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func postBinary(t testing.TB, url string, body []byte, out any) (int, string) {
	t.Helper()
	resp, err := http.Post(url, api.ContentTypeFrame, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

// TestHTTPBinaryIngest streams the binary frame form into a session
// and verifies it against the BFS oracle, then exercises the damage
// and partial-application paths.
func TestHTTPBinaryIngest(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "bin", Builtin: "BioAID"}, nil)

	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 1500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var er api.EventsResponse
	code, raw := postBinary(t, srv.URL+"/v1/sessions/bin/events", frameStream(t, events), &er)
	if code != http.StatusOK {
		t.Fatalf("binary ingest: %d %s", code, raw)
	}
	if er.Applied != len(events) || er.Vertices != int64(len(events)) {
		t.Fatalf("binary ingest response = %+v, want %d events", er, len(events))
	}
	var req api.BatchReachRequest
	for i := 0; i < 300; i++ {
		req.Pairs = append(req.Pairs, api.ReachPair{From: int32(events[i%len(events)].V), To: int32(events[(i*13)%len(events)].V)})
	}
	var br api.BatchReachResponse
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/bin/reach", req, &br); code != http.StatusOK || len(br.Results) != len(req.Pairs) {
		t.Fatalf("reach: %d %s", code, raw)
	}
	for _, ans := range br.Results {
		if ans.Code != "" || ans.Reachable != r.Graph.Reaches(graph.VertexID(ans.From), graph.VertexID(ans.To)) {
			t.Fatalf("reach %+v, oracle disagrees", ans)
		}
	}

	// Damage mid-stream: the valid prefix applies, the response is a
	// structured bad_frame with the applied count.
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "dmg", Builtin: "BioAID"}, nil)
	good := frameStream(t, events[:10])
	code, raw = postBinary(t, srv.URL+"/v1/sessions/dmg/events", append(good, 0xde, 0xad, 0xbe), nil)
	expectCode(t, 400, api.CodeBadFrame, code, raw)
	var resp api.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Applied != 10 {
		t.Fatalf("damaged stream applied = %s", raw)
	}

	// A duplicate vertex mid-stream is a bad_event at its index.
	dup := frameStream(t, append(append([]run.Event{}, events[10:12]...), events[11]))
	code, raw = postBinary(t, srv.URL+"/v1/sessions/dmg/events", dup, nil)
	expectCode(t, 400, api.CodeBadEvent, code, raw)
	if e := decodeError(t, raw); e.Message == "" || !bytes.Contains([]byte(e.Message), []byte("event 2")) {
		t.Fatalf("duplicate index not named: %s", raw)
	}
}

// TestHTTPBinaryIngestTeesWALBytes is the tee guarantee end to end: a
// durable server's write-ahead log ends up byte-identical to the
// binary request body it acknowledged, because accepted frames are
// logged as received rather than re-encoded.
func TestHTTPBinaryIngestTeesWALBytes(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewDurableRegistry(DurableOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "tee", Builtin: "RunningExample"}, nil)
	g := compileBuiltin(t, "RunningExample")
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	body := frameStream(t, events)
	if code, raw := postBinary(t, srv.URL+"/v1/sessions/tee/events", body, nil); code != http.StatusOK {
		t.Fatalf("binary ingest: %d %s", code, raw)
	}
	disk, err := os.ReadFile(filepath.Join(dir, "tee", "events.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, body) {
		t.Fatalf("WAL (%d bytes) is not byte-identical to the wire body (%d bytes)", len(disk), len(body))
	}
}

// TestHTTPBatchReach answers many pairs per roundtrip, with pair-level
// errors inline.
func TestHTTPBatchReach(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "BioAID"}, nil)
	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 900, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if code, raw := postBinary(t, srv.URL+"/v1/sessions/s/events", frameStream(t, events), nil); code != 200 {
		t.Fatalf("ingest: %d %s", code, raw)
	}

	var req api.BatchReachRequest
	for i := 0; i < 64; i++ {
		req.Pairs = append(req.Pairs, api.ReachPair{
			From: int32(events[(i*7)%len(events)].V), To: int32(events[(i*31)%len(events)].V)})
	}
	req.Pairs = append(req.Pairs, api.ReachPair{From: 0, To: 999999}) // unanswerable pair

	var br api.BatchReachResponse
	code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/s/reach", req, &br)
	if code != http.StatusOK {
		t.Fatalf("batch reach: %d %s", code, raw)
	}
	if len(br.Results) != len(req.Pairs) {
		t.Fatalf("%d results for %d pairs", len(br.Results), len(req.Pairs))
	}
	for i, ans := range br.Results[:64] {
		if ans.Code != "" {
			t.Fatalf("pair %d failed: %+v", i, ans)
		}
		if want := r.Graph.Reaches(graph.VertexID(ans.From), graph.VertexID(ans.To)); ans.Reachable != want {
			t.Fatalf("pair %d: reach(%d,%d) = %v, oracle %v", i, ans.From, ans.To, ans.Reachable, want)
		}
	}
	last := br.Results[64]
	if last.Code != api.CodeVertexNotLabeled || last.Error == "" {
		t.Fatalf("unanswerable pair = %+v, want inline vertex_not_labeled", last)
	}

	// Empty batch: empty results, not an error.
	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions/s/reach", api.BatchReachRequest{}, &br)
	if code != http.StatusOK || br.Results == nil || len(br.Results) != 0 {
		t.Fatalf("empty batch: %d %s", code, raw)
	}

	// Oversized batch: structured 400.
	big := api.BatchReachRequest{Pairs: make([]api.ReachPair, api.MaxReachPairs+1)}
	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions/s/reach", big, nil)
	expectCode(t, 400, api.CodeBadRequest, code, raw)
}

// TestHTTPLineagePagination pages through a closure with cursor+limit
// and checks the concatenation equals the BFS closure; a bare ?of= is
// the first page at the default limit.
func TestHTTPLineagePagination(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "BioAID"}, nil)
	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 1500, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if code, raw := postBinary(t, srv.URL+"/v1/sessions/s/events", frameStream(t, events), nil); code != 200 {
		t.Fatalf("ingest: %d %s", code, raw)
	}
	sink := events[len(events)-1].V
	var full api.LineageResponse
	for _, ev := range events {
		if r.Graph.Reaches(ev.V, sink) {
			full.Ancestors = append(full.Ancestors, int32(ev.V))
		}
	}
	slices.Sort(full.Ancestors)
	if len(full.Ancestors) <= api.DefaultLineageLimit {
		t.Fatalf("closure of %d ancestors fits one default page — test is vacuous", len(full.Ancestors))
	}

	var first api.LineageResponse
	if code, raw := doJSON(t, "GET",
		fmt.Sprintf("%s/v1/sessions/s/lineage?of=%d", srv.URL, sink), nil, &first); code != 200 {
		t.Fatalf("bare lineage: %d %s", code, raw)
	}
	if len(first.Ancestors) != api.DefaultLineageLimit || first.NextCursor != strconv.Itoa(int(first.Ancestors[len(first.Ancestors)-1])) ||
		!slices.Equal(first.Ancestors, full.Ancestors[:api.DefaultLineageLimit]) {
		t.Fatalf("bare lineage = %d ancestors, cursor %q; want the first %d, cursor at the last", len(first.Ancestors), first.NextCursor, api.DefaultLineageLimit)
	}

	var paged []int32
	cursor := ""
	pages := 0
	for {
		url := fmt.Sprintf("%s/v1/sessions/s/lineage?of=%d&limit=7", srv.URL, sink)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page api.LineageResponse
		if code, raw := doJSON(t, "GET", url, nil, &page); code != 200 {
			t.Fatalf("page %d: %d %s", pages, code, raw)
		}
		if len(page.Ancestors) > 7 {
			t.Fatalf("page %d has %d ancestors, limit 7", pages, len(page.Ancestors))
		}
		paged = append(paged, page.Ancestors...)
		pages++
		if page.NextCursor == "" {
			break
		}
		if _, err := strconv.Atoi(page.NextCursor); err != nil {
			t.Fatalf("next_cursor %q is not a vertex id", page.NextCursor)
		}
		cursor = page.NextCursor
	}
	if pages < 2 {
		t.Fatalf("closure of %d ancestors paged in %d pages", len(full.Ancestors), pages)
	}
	if !slices.Equal(paged, full.Ancestors) {
		t.Fatalf("paged %d ancestors, BFS closure %d", len(paged), len(full.Ancestors))
	}
}
