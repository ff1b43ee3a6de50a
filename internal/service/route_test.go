package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"wfreach/internal/api"
)

// TestOneRouteGate pins every session route under each shape of the
// one routing gate: none, a follower's (every write refused read_only
// naming the primary) and a cluster node's (a held session that moved
// away refuses writes read_only, any other session is wrong_node naming
// its owner). Each row pins the status, code and detail; a refused
// request must leave the registry as it was.
func TestOneRouteGate(t *testing.T) {
	const primary, owner = "http://primary.example", "http://owner.example"
	follower := func(_ string, write bool) error {
		if !write {
			return nil
		}
		return api.Errorf(api.CodeReadOnly, "read-only follower").WithDetail("%s", primary)
	}
	cluster := func(session string, write bool) error {
		switch {
		case session != "s":
			return api.Errorf(api.CodeWrongNode, "owned elsewhere").WithDetail("%s", owner)
		case write:
			return api.Errorf(api.CodeReadOnly, "moved").WithDetail("%s", owner)
		}
		return nil
	}
	type want struct {
		status int
		code   api.ErrorCode
		detail string
	}
	ok := func(status int) want { return want{status: status} }
	readOnly := func(to string) want { return want{http.StatusMisdirectedRequest, api.CodeReadOnly, to} }
	wrongNode := want{http.StatusMisdirectedRequest, api.CodeWrongNode, owner}
	notFound := want{http.StatusNotFound, api.CodeSessionNotFound, ""}
	badJSON := want{http.StatusBadRequest, api.CodeBadJSON, ""}
	noRoute := want{http.StatusNotFound, api.CodeNotFound, ""}

	routes := []struct {
		name, method, path, body string
		none, follower, cluster  want
	}{
		{"create", "POST", "/v1/sessions", `{"name":"new","builtin":"RunningExample"}`,
			ok(http.StatusCreated), readOnly(primary), wrongNode},
		// The gate is asked once the name is parsed: a body that does not
		// parse is refused as such, wherever it was sent.
		{"create, bad body", "POST", "/v1/sessions", `{"name":`, badJSON, badJSON, badJSON},
		{"delete", "DELETE", "/v1/sessions/s", "", ok(http.StatusNoContent), readOnly(primary), readOnly(owner)},
		{"ingest", "POST", "/v1/sessions/s/events", `{"events":[]}`, ok(http.StatusOK), readOnly(primary), readOnly(owner)},
		{"ingest, absent session", "POST", "/v1/sessions/gone/events", `{"events":[]}`, notFound, readOnly(primary), wrongNode},
		{"reach", "POST", "/v1/sessions/s/reach", `{"pairs":[{"from":0,"to":1}]}`, ok(http.StatusOK), ok(http.StatusOK), ok(http.StatusOK)},
		{"reach, absent session", "POST", "/v1/sessions/gone/reach", `{"pairs":[]}`, notFound, notFound, wrongNode},
		{"lineage", "GET", "/v1/sessions/s/lineage?of=0", "", ok(http.StatusOK), ok(http.StatusOK), ok(http.StatusOK)},
		{"stats", "GET", "/v1/sessions/s", "", ok(http.StatusOK), ok(http.StatusOK), ok(http.StatusOK)},
		{"stats, absent session", "GET", "/v1/sessions/gone", "", notFound, notFound, wrongNode},
		{"retired stats route", "GET", "/v1/sessions/s/stats", "", noRoute, noRoute, noRoute},
		{"WAL tail", "GET", "/v1/sessions/s/wal?wait=false", "", ok(http.StatusOK), ok(http.StatusOK), ok(http.StatusOK)},
		{"list", "GET", "/v1/sessions", "", ok(http.StatusOK), ok(http.StatusOK), ok(http.StatusOK)},
	}
	for _, gate := range []struct {
		name  string
		route func(string, bool) error
		want  func(i int) want
	}{
		{"none", nil, func(i int) want { return routes[i].none }},
		{"follower", follower, func(i int) want { return routes[i].follower }},
		{"cluster", cluster, func(i int) want { return routes[i].cluster }},
	} {
		for i, rt := range routes {
			t.Run(gate.name+"/"+rt.name, func(t *testing.T) {
				reg, _, srv := newDurableTestServer(t)
				n := ingestGenerated(t, reg, "s", 40, 1)
				reg.SetRoute(gate.route)
				var body io.Reader
				if rt.body != "" {
					body = strings.NewReader(rt.body)
				}
				req, err := http.NewRequest(rt.method, srv.URL+rt.path, body)
				if err != nil {
					t.Fatal(err)
				}
				if body != nil {
					req.Header.Set("Content-Type", api.ContentTypeJSON)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				var got want
				got.status = resp.StatusCode
				if got.status >= 400 {
					var er api.ErrorResponse
					if err := json.Unmarshal(raw, &er); err != nil || er.Err == nil {
						t.Fatalf("%d with an unstructured body: %s", got.status, raw)
					}
					got.code, got.detail = er.Err.Code, er.Err.Detail
				}
				w := gate.want(i)
				if got != w {
					t.Fatalf("%s %s: %+v, want %+v (%s)", rt.method, rt.path, got, w, raw)
				}
				if got.status < 400 {
					return
				}
				// A refusal applied nothing.
				if _, created := reg.Get("new"); created {
					t.Fatal("a refused request created a session")
				}
				if s, held := reg.Get("s"); !held || s.Vertices() != int64(n) {
					t.Fatal("a refused request changed the held session")
				}
			})
		}
	}
}
