package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// reachCase is one grammar of the batch-reach oracle: a generated run,
// its events in arrival order, and BFS on the run as ground truth.
type reachCase struct {
	name   string
	g      *spec.Grammar
	events []run.Event
	r      *run.Run
}

// reachCorpus is the corpus every query form ships with: the two fixed
// grammars of the benchmark and internal/gen's random linear and
// nonlinear ones.
func reachCorpus(t *testing.T) []reachCase {
	t.Helper()
	bio := compileBuiltin(t, "BioAID")
	bioEvents, bioRun := genEvents(t, bio, 3000, 17)
	agent, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 3000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cases := []reachCase{
		{"BioAID", bio, bioEvents, bioRun},
		{"agent", agent.Run.Grammar, agent.Events, agent.Run},
	}
	for seed := int64(1); seed <= 2; seed++ {
		lin := spec.MustCompile(wfspecs.RandomSpec(wfspecs.RandomParams{Plain: int(seed), Loops: 1, Forks: 2,
			RecursionLen: int(seed), MaxGraphSize: 6, Seed: seed * 1013}))
		non := spec.MustCompile(wfspecs.RandomSpec(wfspecs.RandomParams{Plain: 1, Loops: 1, Forks: int(seed % 2),
			RecursionLen: int(seed), NonlinearRec: true, MaxGraphSize: 6, Seed: seed * 509}))
		for _, c := range []struct {
			kind string
			g    *spec.Grammar
			opts gen.Options
		}{
			{"linear", lin, gen.Options{TargetSize: 400, Seed: seed}},
			{"nonlinear", non, gen.Options{TargetSize: 150, Seed: seed, DepthFirst: seed%2 == 1}},
		} {
			events, r, err := gen.GenerateEvents(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, reachCase{fmt.Sprintf("%s%d", c.kind, seed), c.g, events, r})
		}
	}
	return cases
}

// mixedPairs draws n pairs over a stream of which the first published
// events are in the session: mostly two published vertices, and one
// time in five a vertex the session cannot answer for — generated but
// not ingested yet, negative, or far past anything it has seen.
func mixedPairs(rng *rand.Rand, events []run.Event, published, n int) []api.ReachPair {
	vertex := func() int32 {
		switch rng.Intn(15) {
		case 0:
			if published < len(events) {
				return int32(events[published+rng.Intn(len(events)-published)].V)
			}
			return 1 << 29
		case 1:
			return -1 - rng.Int31n(1000)
		case 2:
			return 1<<30 + rng.Int31n(1000)
		}
		return int32(events[rng.Intn(published)].V)
	}
	pairs := make([]api.ReachPair, n)
	for i := range pairs {
		pairs[i] = api.ReachPair{From: vertex(), To: vertex()}
	}
	return pairs
}

// checkAgainstBFS holds one batch's answers against ground truth: a
// pair of published vertices is answered, and as breadth-first search
// on the run answers it; any other pair fails inline, as not labeled,
// with a message naming one of its own vertices.
func checkAgainstBFS(t *testing.T, c reachCase, isPublished func(int32) bool, answers []api.ReachAnswer) {
	t.Helper()
	for i, a := range answers {
		if isPublished(a.From) && isPublished(a.To) {
			if want := c.r.Reaches(graph.VertexID(a.From), graph.VertexID(a.To)); a.Code != "" || a.Reachable != want {
				t.Fatalf("%s: pair %d = %+v, breadth-first search says %v", c.name, i, a, want)
			}
			continue
		}
		if !failsNamingItsVertex(a) {
			t.Fatalf("%s: pair %d = %+v, want an inline vertex_not_labeled naming its vertex", c.name, i, a)
		}
	}
}

// failsNamingItsVertex reports whether a is the inline failure of an
// unlabeled vertex, its message naming one of the pair's own vertices.
func failsNamingItsVertex(a api.ReachAnswer) bool {
	names := strings.Contains(a.Error, fmt.Sprintf("vertex %d ", a.From)) || strings.Contains(a.Error, fmt.Sprintf("vertex %d ", a.To))
	return a.Code == api.CodeVertexNotLabeled && !a.Reachable && names
}

// postReach posts one batch-reach body and returns the whole response.
func postReach(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestBinaryReachMatchesEveryForm is the batch-reach oracle: over every
// grammar of the corpus, with part of the stream not ingested yet and
// negative and unseen vertices mixed in, at batch sizes on both sides
// of a bitmap byte and of the cap, the binary form, the JSON form and
// Session.ReachBatch give the same answers — codes and messages
// included — and those are breadth-first search's. One pair past the
// cap is the same typed refusal in both forms.
func TestBinaryReachMatchesEveryForm(t *testing.T) {
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	rng := rand.New(rand.NewSource(4))
	for _, c := range reachCorpus(t) {
		s, err := reg.Create(c.name, c.g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		published := len(c.events) * 7 / 10
		appendAll(t, s, c.events[:published], 128)
		pos := make(map[int32]bool, published)
		for _, ev := range c.events[:published] {
			pos[int32(ev.V)] = true
		}
		isPublished := func(v int32) bool { return pos[v] }
		url := srv.URL + "/v1/sessions/" + c.name + "/reach"

		for _, n := range []int{0, 1, 63, 64, 65, api.MaxReachPairs, api.MaxReachPairs + 1} {
			pairs := mixedPairs(rng, c.events, published, n)
			jsonBody, err := json.Marshal(api.BatchReachRequest{Pairs: pairs})
			if err != nil {
				t.Fatal(err)
			}
			jresp, jraw := postReach(t, url, api.ContentTypeJSON, jsonBody)
			bresp, braw := postReach(t, url, api.ContentTypeReach, api.AppendReachRequest(nil, pairs))
			if n > api.MaxReachPairs {
				for form, raw := range map[string][]byte{"JSON": jraw, "binary": braw} {
					e := decodeError(t, string(raw))
					if e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "exceeds the 4096-pair cap") {
						t.Fatalf("%s: %d pairs, %s form: %s", c.name, n, form, raw)
					}
				}
				if jresp.StatusCode != 400 || bresp.StatusCode != 400 || bresp.Header.Get("Content-Type") != api.ContentTypeJSON {
					t.Fatalf("%s: %d pairs: statuses %d and %d, binary refusal typed %q", c.name, n, jresp.StatusCode, bresp.StatusCode, bresp.Header.Get("Content-Type"))
				}
				continue
			}

			want := s.ReachBatch(pairs)
			checkAgainstBFS(t, c, isPublished, want)
			var viaJSON api.BatchReachResponse
			if err := json.Unmarshal(jraw, &viaJSON); err != nil || jresp.StatusCode != 200 {
				t.Fatalf("%s: %d pairs, JSON form: %d %v", c.name, n, jresp.StatusCode, err)
			}
			if !slices.Equal(viaJSON.Results, want) {
				t.Fatalf("%s: %d pairs: the JSON form and Session.ReachBatch differ", c.name, n)
			}
			if bresp.StatusCode != 200 || bresp.Header.Get("Content-Type") != api.ContentTypeReach {
				t.Fatalf("%s: %d pairs, binary form: %d %q %s", c.name, n, bresp.StatusCode, bresp.Header.Get("Content-Type"), braw)
			}
			// One write of declared length, however many failures the
			// batch carries: never chunked.
			if bresp.ContentLength != int64(len(braw)) || len(bresp.TransferEncoding) != 0 {
				t.Fatalf("%s: %d pairs: binary response of %d bytes declared %d, transfer encoding %v", c.name, n, len(braw), bresp.ContentLength, bresp.TransferEncoding)
			}
			viaBinary, err := api.DecodeReachResponseInto(nil, pairs, braw)
			if err != nil {
				t.Fatalf("%s: %d pairs: binary response: %v", c.name, n, err)
			}
			if !slices.Equal(viaBinary, want) {
				for i := range want {
					if viaBinary[i] != want[i] {
						t.Fatalf("%s: %d pairs: pair %d is %+v in the binary form, %+v from Session.ReachBatch", c.name, n, i, viaBinary[i], want[i])
					}
				}
			}
		}
	}
}

// TestReachRequestLevelErrorsStayJSON: whatever form asked, an error
// about the request as a whole is the JSON ErrorResponse with its
// status — so the SDK's decodeError, follower redirects and cluster
// routing never see the binary form.
func TestReachRequestLevelErrorsStayJSON(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "s", Builtin: "RunningExample"}, nil)
	good := api.AppendReachRequest(nil, []api.ReachPair{{From: 0, To: 0}})
	for _, c := range []struct {
		name, session, contentType string
		body                       []byte
		status                     int
		code                       api.ErrorCode
		says                       string
	}{
		{"unknown session", "nope", api.ContentTypeReach, good, 404, api.CodeSessionNotFound, "nope"},
		{"truncated body", "s", api.ContentTypeReach, good[:2], 400, api.CodeBadRequest, "only"},
		{"truncated varint", "s", api.ContentTypeReach, []byte{1, 0, 0x80}, 400, api.CodeBadRequest, "varint"},
		{"trailing bytes", "s", api.ContentTypeReach, append(slices.Clone(good), 0), 400, api.CodeBadRequest, "trailing"},
		{"forged count", "s", api.ContentTypeReach, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, 400, api.CodeBadRequest, "only"},
		{"empty body", "s", api.ContentTypeReach, nil, 400, api.CodeBadRequest, "varint"},
		{"ingest frames on the reach route", "s", api.ContentTypeFrame, good, 400, api.CodeBadRequest, api.ContentTypeReach + " or " + api.ContentTypeJSON},
		{"some other type", "s", "text/plain", []byte(`{"pairs":[]}`), 400, api.CodeBadRequest, api.ContentTypeReach + " or " + api.ContentTypeJSON},
		{"binary sent as JSON", "s", api.ContentTypeJSON, good, 400, api.CodeBadJSON, "bad JSON"},
	} {
		resp, raw := postReach(t, srv.URL+"/v1/sessions/"+c.session+"/reach", c.contentType, c.body)
		expectCode(t, c.status, c.code, resp.StatusCode, string(raw))
		if e := decodeError(t, string(raw)); !strings.Contains(e.Message, c.says) || resp.Header.Get("Content-Type") != api.ContentTypeJSON {
			t.Errorf("%s: %s (typed %q), want a JSON error saying %q", c.name, raw, resp.Header.Get("Content-Type"), c.says)
		}
	}
	// A body of no declared type is the JSON form, as on every route.
	resp, raw := postReach(t, srv.URL+"/v1/sessions/s/reach", "", []byte(`{"pairs":[{"from":0,"to":0}]}`))
	if resp.StatusCode != 200 || !strings.Contains(string(raw), `"results":[{"from":0,"to":0,`) {
		t.Fatalf("untyped JSON body: %d %s", resp.StatusCode, raw)
	}
}

// repeated reads as unit, n times over, without ever holding more than
// one copy of it.
type repeated struct {
	unit string
	n    int
	off  int
}

func (r *repeated) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.unit[r.off:])
	if r.off += k; r.off == len(r.unit) {
		r.off, r.n = 0, r.n-1
	}
	return k, nil
}

// TestReachBodyIsBoundedBeforeParsing: the pair cap used to be checked
// after the whole body had been parsed — three million pairs of JSON
// cost the server 250 MB before the 400. Both forms are now refused on
// their declared length alone, and a JSON body that declares none stops
// being read at the cap; either way the handler allocates under a
// megabyte saying no.
func TestReachBodyIsBoundedBeforeParsing(t *testing.T) {
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	if _, err := reg.Create("s", compileBuiltin(t, "RunningExample"), Config{}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(reg)
	const pairs = 3_000_001
	const unit = `{"from":1,"to":2},`
	jsonBody := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"pairs":[`), &repeated{unit: unit, n: pairs - 1}, strings.NewReader(`{"from":1,"to":2}]}`))
	}
	jsonLen := int64(len(`{"pairs":[`) + len(unit)*pairs + 1)
	binaryBody := func() io.Reader {
		return io.MultiReader(bytes.NewReader([]byte{0xc1, 0x8d, 0xb7, 0x01}), &repeated{unit: "\x02\x04", n: pairs}) // uvarint 3,000,001
	}
	for _, c := range []struct {
		name, contentType string
		body              io.Reader
		declared          int64
		says              string
	}{
		{"JSON, declared", api.ContentTypeJSON, jsonBody(), jsonLen, fmt.Sprint(api.MaxReachJSONBytes)},
		{"JSON, chunked", api.ContentTypeJSON, jsonBody(), -1, fmt.Sprint(api.MaxReachJSONBytes)},
		{"binary, declared", api.ContentTypeReach, binaryBody(), 4 + 2*pairs, fmt.Sprint(api.MaxReachRequestBytes)},
		{"binary, one byte over", api.ContentTypeReach, binaryBody(), api.MaxReachRequestBytes + 1, fmt.Sprint(api.MaxReachRequestBytes)},
		{"binary, chunked", api.ContentTypeReach, binaryBody(), -1, "Content-Length"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/reach", c.body)
		req.ContentLength = c.declared
		req.Header.Set("Content-Type", c.contentType)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		expectCode(t, 400, api.CodeBadRequest, rec.Code, rec.Body.String())
		if e := decodeError(t, rec.Body.String()); !strings.Contains(e.Message, c.says) {
			t.Errorf("%s: %q does not name %s", c.name, e.Message, c.says)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent >= 1<<20 {
			t.Errorf("%s: the handler allocated %d bytes refusing it, want under 1 MiB", c.name, spent)
		}
	}
	// The caps are not off by one: a full batch fits both forms.
	full := make([]api.ReachPair, api.MaxReachPairs)
	for i := range full {
		full[i] = api.ReachPair{From: -1 << 31, To: -1 << 31}
	}
	jsonFull, _ := json.Marshal(api.BatchReachRequest{Pairs: full})
	for contentType, body := range map[string][]byte{api.ContentTypeJSON: jsonFull, api.ContentTypeReach: api.AppendReachRequest(nil, full)} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/reach", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Errorf("a full batch of the widest pairs (%d bytes of %s): %d %s", len(body), contentType, rec.Code, rec.Body)
		}
	}
}

// TestReachScratchDiesWithTheRequest is the lifetime contract of the
// binary reach handler's shared buffers, under -race: body, pairs,
// bitmap and failure list are a request's own from the moment it takes
// a scratch to the moment it puts it back, and reference nothing of it
// afterwards. Two readers and a writer share one handler; after every
// request a reader takes whatever scratch the free list hands out,
// checks it holds no failure of a finished request, and defaces all of
// it. No answer may then show another request's pairs or bits: every
// pair of vertices published before the request was sent is answered as
// breadth-first search answers it, every other failure names its own
// vertex.
func TestReachScratchDiesWithTheRequest(t *testing.T) {
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	g := compileBuiltin(t, "BioAID")
	s, err := reg.Create("s", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, r := genEvents(t, g, 6000, 23)
	pos := make(map[int32]int, len(events))
	for i, ev := range events {
		pos[int32(ev.V)] = i
	}
	h := NewHandler(reg)
	appendAll(t, s, events[:500], 100)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for lo := 500; lo < len(events); lo += 50 {
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/events", bytes.NewReader(frameStream(t, events[lo:min(lo+50, len(events))])))
			req.Header.Set("Content-Type", api.ContentTypeFrame)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("ingest at %d: %d %s", lo, rec.Code, rec.Body)
				return
			}
		}
	}()
	for ri := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ri)))
			for requests := 0; ; requests++ {
				select {
				case <-done:
					if requests > 200 {
						return
					}
				default:
				}
				published := int(s.Vertices()) // before the request is sent
				pairs := mixedPairs(rng, events, min(published+100, len(events)), 1+rng.Intn(300))
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/reach", bytes.NewReader(api.AppendReachRequest(nil, pairs)))
				req.Header.Set("Content-Type", api.ContentTypeReach)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				answers, err := api.DecodeReachResponseInto(nil, pairs, rec.Body.Bytes())
				if rec.Code != http.StatusOK || err != nil {
					t.Errorf("reach: %d %v %s", rec.Code, err, rec.Body)
					return
				}
				// A vertex published while the request ran may be answered or
				// not; one published before it was sent must be, and one the
				// stream never held cannot be.
				for i, a := range answers {
					pf, okf := pos[a.From]
					pt, okt := pos[a.To]
					switch {
					case a.Code == "" && okf && okt:
						if want := r.Reaches(graph.VertexID(a.From), graph.VertexID(a.To)); a.Reachable != want {
							t.Errorf("pair %d = %+v, breadth-first search says %v", i, a, want)
							return
						}
					case a.Code == "":
						t.Errorf("pair %d = %+v is answered, and one of its vertices was never sent", i, a)
						return
					case okf && okt && pf < published && pt < published:
						t.Errorf("pair %d = %+v fails, both vertices were published before the request", i, a)
						return
					case !failsNamingItsVertex(a):
						t.Errorf("pair %d = %+v, want an inline vertex_not_labeled naming its vertex", i, a)
						return
					}
				}

				sc := reg.reachScratch.get()
				for _, f := range sc.fails[:cap(sc.fails)] {
					if f != (api.ReachFailure{}) {
						t.Errorf("idle scratch still holds failure %+v", f)
						return
					}
				}
				for _, b := range [][]byte{sc.buf[:cap(sc.buf)], sc.bits[:cap(sc.bits)]} {
					for i := range b {
						b[i] = 0xaa
					}
				}
				for i := range sc.pairs[:cap(sc.pairs)] {
					sc.pairs[:cap(sc.pairs)][i] = api.ReachPair{From: -9, To: -9}
				}
				reg.reachScratch.put(sc)
			}
		}()
	}
	wg.Wait()
}
