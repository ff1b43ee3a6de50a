package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/store"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	_, _, srv := newDurableTestServer(t)
	return srv
}

func doJSON(t testing.TB, method, url string, body, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
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
			t.Fatalf("decode %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestHTTPSessionLifecycle(t *testing.T) {
	srv := newTestServer(t)

	var st Stats
	code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "s1", Builtin: "RunningExample"}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if st.Name != "s1" || st.Vertices != 0 || st.SkeletonBits == 0 {
		t.Fatalf("create stats = %+v", st)
	}

	// Duplicate name conflicts; bad builtin and empty body are 400s.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "s1", Builtin: "RunningExample"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "s2", Builtin: "nope"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad builtin: %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "s2"}, nil); code != http.StatusBadRequest {
		t.Fatalf("specless create: %d", code)
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Builtin: "RunningExample"}, nil); code != http.StatusBadRequest {
		t.Fatalf("nameless create should be 400, got %d %s", code, raw)
	}

	// Inline spec XML in the JSON body.
	var xml bytes.Buffer
	if err := wfxml.EncodeSpec(&xml, wfspecs.RunningExample()); err != nil {
		t.Fatal(err)
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "s2", SpecXML: xml.String()}, &st); code != http.StatusCreated {
		t.Fatalf("inline spec create: %d %s", code, raw)
	} else if st.Name != "s2" {
		t.Fatalf("inline spec stats = %+v", st)
	}

	// Raw XML upload with the name in a query parameter.
	resp, err := http.Post(srv.URL+"/v1/sessions?name=s3", "application/xml",
		strings.NewReader(xml.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("xml upload: %d", resp.StatusCode)
	}

	var list api.ListSessionsResponse
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Sessions) != 3 {
		t.Fatalf("list = %+v", list)
	}

	if code, _ := doJSON(t, "DELETE", srv.URL+"/v1/sessions/s3", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doJSON(t, "DELETE", srv.URL+"/v1/sessions/s3", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/s3", nil, nil); code != http.StatusNotFound {
		t.Fatalf("stats of deleted: %d", code)
	}
}

func TestHTTPEventFormsAndErrors(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}, nil)

	g := compileBuiltin(t, "RunningExample")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Mixed batch: ref-form and name-form events interleaved.
	wire := make([]api.Event, len(events))
	for i, ev := range events {
		if i%2 == 0 {
			wire[i] = api.FromRun(ev)
		} else {
			wire[i] = namedWire(toNamed(r, ev))
		}
	}
	var er api.EventsResponse
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/s/events",
		api.EventsRequest{Events: wire}, &er); code != http.StatusOK {
		t.Fatalf("events: %d %s", code, raw)
	}
	if er.Applied != len(events) || er.Vertices != int64(len(events)) {
		t.Fatalf("events response = %+v", er)
	}

	// Replaying the stream is a 400 with applied=0 (duplicate vertex).
	code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/s/events",
		api.EventsRequest{Events: wire[:1]}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("replay: %d %s", code, raw)
	}

	// Malformed events.
	g0 := int32(0)
	for _, bad := range [][]api.Event{
		{{V: 999}}, // neither form
		{{V: 999, Name: "x", Graph: &g0, Vertex: &g0}}, // both forms
	} {
		if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions/s/events",
			api.EventsRequest{Events: bad}, nil); code != http.StatusBadRequest {
			t.Fatalf("bad event %+v: %d", bad, code)
		}
	}

	// A failing event in a mixed batch is reported at its position in
	// the submitted batch, not within a same-form sub-batch.
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "mix", Builtin: "RunningExample"}, nil)
	mixed := []api.Event{
		api.FromRun(events[0]),
		namedWire(toNamed(r, events[1])),
		namedWire(toNamed(r, events[2])),
		namedWire(toNamed(r, events[2])), // duplicate: fails at batch index 3
	}
	code, raw = doJSON(t, "POST", srv.URL+"/v1/sessions/mix/events", api.EventsRequest{Events: mixed}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, "event 3:") {
		t.Fatalf("mixed-batch failure index: %d %s", code, raw)
	}

	// Reach and lineage answers match the oracle; an unlabeled vertex
	// fails its pair inline.
	var req api.BatchReachRequest
	for i := 0; i < 200; i++ {
		req.Pairs = append(req.Pairs, api.ReachPair{From: int32(events[i%len(events)].V), To: int32(events[(i*7)%len(events)].V)})
	}
	req.Pairs = append(req.Pairs, api.ReachPair{From: 0, To: 999999})
	var br api.BatchReachResponse
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/s/reach", req, &br); code != http.StatusOK || len(br.Results) != len(req.Pairs) {
		t.Fatalf("reach: %d %s", code, raw)
	}
	for i, ans := range br.Results[:200] {
		if ans.Code != "" || ans.Reachable != r.Graph.Reaches(graph.VertexID(ans.From), graph.VertexID(ans.To)) {
			t.Fatalf("pair %d: %+v disagrees with the oracle", i, ans)
		}
	}
	if ans := br.Results[200]; ans.Code != api.CodeVertexNotLabeled {
		t.Fatalf("unlabeled pair: %+v", ans)
	}
	var lr api.LineageResponse
	sink := events[len(events)-1].V
	if code, raw := doJSON(t, "GET",
		fmt.Sprintf("%s/v1/sessions/s/lineage?of=%d", srv.URL, sink), nil, &lr); code != http.StatusOK {
		t.Fatalf("lineage: %d %s", code, raw)
	}
	if len(lr.Ancestors) == 0 {
		t.Fatal("empty lineage for sink")
	}

	// Unknown session.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions/nope/reach", api.BatchReachRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d", code)
	}
}

// TestHTTPStreamingE2E is the acceptance scenario: a ≥10k-vertex
// generated execution streamed to the server in batches while reader
// goroutines issue interleaved reachability queries over HTTP, every
// answer checked against the BFS ground-truth oracle. Run with -race.
func TestHTTPStreamingE2E(t *testing.T) {
	const (
		batch   = 256
		readers = 4
	)
	srv := newTestServer(t)
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "big", Builtin: "BioAID"}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}

	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 11000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 10000 {
		t.Fatalf("generated only %d events, want ≥10000", len(events))
	}

	watermark := new(atomic.Int64)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // single writer streams batches
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(events); i += batch {
			end := min(i+batch, len(events))
			wire := make([]api.Event, 0, end-i)
			for _, ev := range events[i:end] {
				wire = append(wire, api.FromRun(ev))
			}
			var er api.EventsResponse
			if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/big/events",
				api.EventsRequest{Events: wire}, &er); code != http.StatusOK {
				t.Errorf("batch at %d: %d %s", i, code, raw)
				return
			}
			if er.Vertices != int64(end) {
				t.Errorf("after batch at %d: vertices=%d want %d", i, er.Vertices, end)
				return
			}
			watermark.Store(int64(end))
		}
	}()

	queries := new(atomic.Int64)
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			writerDone := func() bool {
				select {
				case <-done:
					return true
				default:
					return false
				}
			}
			// Keep querying until the writer finishes, with a floor of 100
			// verified queries per reader either way.
			for q := 0; q < 100 || !writerDone(); q++ {
				wm := watermark.Load()
				if wm < 2 {
					q--
					continue
				}
				v := events[rng.Int63n(wm)].V
				w := events[rng.Int63n(wm)].V
				var br api.BatchReachResponse
				code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/big/reach",
					api.BatchReachRequest{Pairs: []api.ReachPair{{From: int32(v), To: int32(w)}}}, &br)
				if code != http.StatusOK || len(br.Results) != 1 || br.Results[0].Code != "" {
					t.Errorf("reach(%d,%d): %d %s", v, w, code, raw)
					return
				}
				if want := r.Graph.Reaches(v, w); br.Results[0].Reachable != want {
					t.Errorf("reach(%d,%d) = %v, oracle %v", v, w, br.Results[0].Reachable, want)
					return
				}
				queries.Add(1)
			}
		}(int64(ri))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var st Stats
	doJSON(t, "GET", srv.URL+"/v1/sessions/big", nil, &st)
	if st.Vertices != int64(len(events)) {
		t.Fatalf("final vertices = %d, want %d", st.Vertices, len(events))
	}
	if queries.Load() == 0 {
		t.Fatal("no interleaved queries executed")
	}
	t.Logf("streamed %d vertices in %d-event batches, %d interleaved queries verified",
		len(events), batch, queries.Load())
}

// TestShardsIgnoredOnInput pins compatibility with clients and data
// written when the store had a shard count: a create body carrying
// "shards", a ?shards= query on the XML form and a session.json with a
// "shards" key are all accepted and the value dropped. The session then
// ingests and answers as any other, one publish epoch per batch.
func TestShardsIgnoredOnInput(t *testing.T) {
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"name":"body","builtin":"RunningExample","shards":8}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || strings.Contains(string(raw), "shards") {
		t.Fatalf("create with a shards field: %d %s", resp.StatusCode, raw)
	}
	var xml bytes.Buffer
	if err := wfxml.EncodeSpec(&xml, wfspecs.RunningExample()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/sessions?name=query&shards=zap", "application/xml", &xml)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("xml create with ?shards=: %d", resp.StatusCode)
	}

	g := compileBuiltin(t, "RunningExample")
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 50
	for lo := 0; lo < len(events); lo += batch {
		wire := make([]api.Event, 0, batch)
		for _, ev := range events[lo:min(lo+batch, len(events))] {
			wire = append(wire, api.FromRun(ev))
		}
		if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/body/events", api.EventsRequest{Events: wire}, nil); code != http.StatusOK {
			t.Fatalf("events: %d %s", code, raw)
		}
	}
	var st Stats
	doJSON(t, "GET", srv.URL+"/v1/sessions/body", nil, &st)
	if want := int64((len(events) + batch - 1) / batch); st.PublishEpoch != want || st.Vertices != int64(len(events)) {
		t.Fatalf("stats after ingest: %+v, want %d vertices at epoch %d", st, len(events), want)
	}

	// The session.json an older build wrote for the same session.
	reg.Close()
	metaPath := filepath.Join(dir, "body", metaFile)
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(meta, []byte(`"name"`), []byte(`"shards": 64,
  "name"`), 1)
	if bytes.Equal(old, meta) {
		t.Fatalf("no name key to anchor on in %s", meta)
	}
	if err := os.WriteFile(metaPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	reg2 := durableReg(t, dir, DurableOptions{})
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if s, ok := reg2.Get("body"); !ok || s.Vertices() != int64(len(events)) {
		t.Fatalf("restore of a session.json with a shards key: ok=%v", ok)
	}
}

// TestHTTPCreateLabelingNames pins what a create may name as its
// labeling, in the JSON body and in the XML upload's query parameters:
// the one labeling every session uses, by any of its names, is
// accepted; anything else is a 400 bad_request that creates nothing.
func TestHTTPCreateLabelingNames(t *testing.T) {
	srv := newTestServer(t)
	var xml bytes.Buffer
	if err := wfxml.EncodeSpec(&xml, wfspecs.RunningExample()); err != nil {
		t.Fatal(err)
	}
	create := func(form, name, skel, mode string) (int, []byte) {
		var resp *http.Response
		var err error
		if form == "json" {
			body, _ := json.Marshal(api.CreateSessionRequest{Name: name, Builtin: "RunningExample", Skeleton: skel, RMode: mode})
			resp, err = http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		} else {
			q := url.Values{"name": {name}, "skeleton": {skel}, "rmode": {mode}}
			resp, err = http.Post(srv.URL+"/v1/sessions?"+q.Encode(), "application/xml", strings.NewReader(xml.String()))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	for _, form := range []string{"json", "xml"} {
		for i, c := range []struct {
			skel, mode string
			ok         bool
		}{
			{"", "", true},
			{"TCL", "", true},
			{"", "designated", true},
			{"TCL", "designated-R", true},
			{"BFS", "", false},
			{"", "none", false},
			{"", "no-R", false},
			{"BFS", "none", false},
			{"bfs", "", false},
			{"", "designated-r", false},
		} {
			name := fmt.Sprintf("%s-%d", form, i)
			code, raw := create(form, name, c.skel, c.mode)
			if c.ok {
				var st Stats
				if code != http.StatusCreated || json.Unmarshal(raw, &st) != nil ||
					st.Skeleton != "TCL" || st.Mode != "designated-R" {
					t.Fatalf("%s create naming %q/%q: %d %s", form, c.skel, c.mode, code, raw)
				}
				continue
			}
			var er api.ErrorResponse
			if code != http.StatusBadRequest || json.Unmarshal(raw, &er) != nil || er.Err == nil || er.Err.Code != api.CodeBadRequest {
				t.Fatalf("%s create naming %q/%q: %d %s, want 400 bad_request", form, c.skel, c.mode, code, raw)
			}
			if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/"+name, nil, nil); code != http.StatusNotFound {
				t.Fatalf("%s create naming %q/%q was refused but left a session (GET %d)", form, c.skel, c.mode, code)
			}
		}
	}
}

// TestListSessionsUnderChurn hammers GET /v1/sessions while other
// goroutines create and delete sessions as fast as the handler lets
// them. Every snapshot must be well-formed: no duplicate names, no
// torn entries (a listed session always carries its full stats), and
// sessions that are not being churned keep their exact counts in
// every response.
func TestListSessionsUnderChurn(t *testing.T) {
	srv := newTestServer(t)

	// Two anchors with known sizes that every snapshot must report
	// intact, whatever the churners are doing.
	g := compileBuiltin(t, "RunningExample")
	anchors := map[string]int64{"anchor-a": 120, "anchor-b": 60}
	for name, n := range anchors {
		if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
			api.CreateSessionRequest{Name: name, Builtin: "RunningExample"}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, raw)
		}
		events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: int(n), Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		wire := make([]api.Event, len(events))
		for i, ev := range events {
			wire[i] = api.FromRun(ev)
		}
		if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/"+name+"/events",
			api.EventsRequest{Events: wire}, nil); code != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", name, code, raw)
		}
		anchors[name] = int64(len(events))
	}
	anchorIDs := make(map[string]string, len(anchors))
	for name := range anchors {
		var st Stats
		doJSON(t, "GET", srv.URL+"/v1/sessions/"+name, nil, &st)
		anchorIDs[name] = st.ID
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn-%d-%d", c, i%5)
				if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
					api.CreateSessionRequest{Name: name, Builtin: "RunningExample"}, nil); code != http.StatusCreated {
					t.Errorf("churn create %s: %d %s", name, code, raw)
					return
				}
				if code, raw := doJSON(t, "DELETE", srv.URL+"/v1/sessions/"+name, nil, nil); code != http.StatusNoContent {
					t.Errorf("churn delete %s: %d %s", name, code, raw)
					return
				}
			}
		}(c)
	}

	for i := 0; i < 150 && !t.Failed(); i++ {
		var list api.ListSessionsResponse
		if code, raw := doJSON(t, "GET", srv.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
			t.Fatalf("list #%d: %d %s", i, code, raw)
		}
		seen := make(map[string]bool, len(list.Sessions))
		for _, s := range list.Sessions {
			if seen[s.Name] {
				t.Fatalf("list #%d: duplicate entry %q", i, s.Name)
			}
			seen[s.Name] = true
			// A torn entry would surface as a zero-value stats blob:
			// every session, churned or not, has a class, a skeleton
			// and an identity the moment it is listable.
			if s.Name == "" || s.Class == "" || s.Skeleton == "" || s.ID == "" {
				t.Fatalf("list #%d: torn entry %+v", i, s)
			}
			if want, ok := anchors[s.Name]; ok {
				if s.Vertices != want {
					t.Fatalf("list #%d: %s has %d vertices, want %d", i, s.Name, s.Vertices, want)
				}
				// Identity is stable: the churn next door must never
				// make an untouched session look recreated.
				if s.ID != anchorIDs[s.Name] {
					t.Fatalf("list #%d: %s id flipped %q -> %q", i, s.Name, anchorIDs[s.Name], s.ID)
				}
			}
		}
		for name := range anchors {
			if !seen[name] {
				t.Fatalf("list #%d: anchor %q missing", i, name)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestHTTPLineageTellsMissingFromMalformed: a lineage query for a
// vertex the session has not labeled is the caller's to retry (404
// vertex_not_labeled); one that runs into a stored label that does not
// parse is the server's fault (500 internal) and must not be dressed
// up as the former.
func TestHTTPLineageTellsMissingFromMalformed(t *testing.T) {
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	g := compileBuiltin(t, "RunningExample")
	s, err := reg.Create("lin", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1].V
	url := func(of int32, page string) string {
		return fmt.Sprintf("%s/v1/sessions/lin/lineage?of=%d%s", srv.URL, of, page)
	}
	for _, page := range []string{"", "&limit=10"} { // a bare ?of= is the first page
		var ok api.LineageResponse
		if code, body := doJSON(t, "GET", url(int32(last), page), nil, &ok); code != http.StatusOK || len(ok.Ancestors) == 0 {
			t.Fatalf("lineage%s: %d %s", page, code, body)
		}
		var missing api.ErrorResponse
		if code, body := doJSON(t, "GET", url(9999, page), nil, &missing); code != http.StatusNotFound || missing.Err.Code != api.CodeVertexNotLabeled {
			t.Fatalf("lineage%s of an unlabeled vertex: %d %s", page, code, body)
		}
	}

	// A label whose last byte holds no stop bit: its end, and so its
	// first entry, cannot be read.
	if err := s.store.AppendOwned([]store.Entry{{V: 7777, Enc: []byte{0x00}}}); err != nil {
		t.Fatal(err)
	}
	s.store.Publish()
	// A page ends at its last ancestor: the first ten lie far below
	// vertex 7777, so that page never walks into it.
	var first api.LineageResponse
	if code, body := doJSON(t, "GET", url(int32(last), "&limit=10"), nil, &first); code != http.StatusOK || len(first.Ancestors) != 10 {
		t.Fatalf("first page, ending before the malformed label: %d %s", code, body)
	}
	for _, page := range []string{"", "&limit=1000"} {
		var bad api.ErrorResponse
		code, body := doJSON(t, "GET", url(int32(last), page), nil, &bad)
		if code != http.StatusInternalServerError || bad.Err.Code != api.CodeInternal {
			t.Fatalf("lineage%s over a malformed label: %d %s", page, code, body)
		}
		if !strings.Contains(bad.Err.Message, "7777") {
			t.Fatalf("error does not name the malformed vertex: %s", body)
		}
	}

	// The same fault on batch reach may not call the server's broken
	// label a bad request either.
	var batch api.BatchReachResponse
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/lin/reach",
		api.BatchReachRequest{Pairs: []api.ReachPair{{From: int32(last), To: 7777}, {From: int32(last), To: 9999}}}, &batch)
	if code != http.StatusOK || len(batch.Results) != 2 ||
		batch.Results[0].Code != api.CodeInternal || batch.Results[1].Code != api.CodeVertexNotLabeled {
		t.Fatalf("batch reach against a malformed and a missing label: %d %s", code, body)
	}
}
