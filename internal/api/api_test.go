package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// fromRecord is Event.Record's inverse.
func fromRecord(rec wal.Record) Event {
	if !rec.Named {
		return FromRun(rec.Ref)
	}
	w := Event{V: int32(rec.NamedEv.V), Name: rec.NamedEv.Name}
	for _, p := range rec.NamedEv.Preds {
		w.Preds = append(w.Preds, int32(p))
	}
	return w
}

func refEvent(v, g, sv int32, preds ...int32) Event {
	e := Event{V: v, Graph: &g, Vertex: &sv}
	e.Preds = append(e.Preds, preds...)
	return e
}

func TestEventRecordRoundTrip(t *testing.T) {
	cases := []Event{
		refEvent(0, 0, 3),
		refEvent(7, 2, 1, 0, 3, 5),
		{V: 4, Name: "align", Preds: []int32{1, 2}},
		{V: 9, Name: "x"},
	}
	for _, e := range cases {
		rec, err := e.Record()
		if err != nil {
			t.Fatalf("Record(%+v): %v", e, err)
		}
		back := fromRecord(rec)
		if back.V != e.V || back.Name != e.Name || len(back.Preds) != len(e.Preds) {
			t.Fatalf("round trip %+v -> %+v", e, back)
		}
		if e.Graph != nil && (*back.Graph != *e.Graph || *back.Vertex != *e.Vertex) {
			t.Fatalf("ref round trip %+v -> %+v", e, back)
		}
		for i := range e.Preds {
			if back.Preds[i] != e.Preds[i] {
				t.Fatalf("preds round trip %+v -> %+v", e, back)
			}
		}
	}
}

func TestEventRecordRejectsMalformedForms(t *testing.T) {
	g0 := int32(0)
	for _, bad := range []Event{
		{V: 1}, // neither form
		{V: 1, Name: "x", Graph: &g0, Vertex: &g0}, // both forms
		{V: 1, Graph: &g0},                         // half a ref
		{V: -7, Graph: &g0, Vertex: &g0},           // negative v
		{V: 1, Name: "x", Preds: []int32{0, -1}},   // negative pred
	} {
		_, err := bad.Record()
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeBadEvent {
			t.Fatalf("Record(%+v) = %v, want CodeBadEvent", bad, err)
		}
	}
}

func TestFromRun(t *testing.T) {
	rev := run.Event{V: 5, Ref: spec.VertexRef{Graph: 2, V: 1}, Preds: []graph.VertexID{3, 4}}
	e := FromRun(rev)
	if e.V != 5 || *e.Graph != 2 || *e.Vertex != 1 || len(e.Preds) != 2 || e.Name != "" {
		t.Fatalf("FromRun = %+v", e)
	}
}

func TestErrorCodeStatusMapping(t *testing.T) {
	want := map[ErrorCode]int{
		CodeBadRequest:       http.StatusBadRequest,
		CodeBadJSON:          http.StatusBadRequest,
		CodeBadVertex:        http.StatusBadRequest,
		CodeBadEvent:         http.StatusBadRequest,
		CodeBadFrame:         http.StatusBadRequest,
		CodeBadSpec:          http.StatusBadRequest,
		CodeUnknownBuiltin:   http.StatusBadRequest,
		CodeSessionNotFound:  http.StatusNotFound,
		CodeVertexNotLabeled: http.StatusNotFound,
		CodeNotFound:         http.StatusNotFound,
		CodeSessionExists:    http.StatusConflict,
		CodeMethodNotAllowed: http.StatusMethodNotAllowed,
		CodeSessionPoisoned:  http.StatusInternalServerError,
		CodeInternal:         http.StatusInternalServerError,
	}
	for code, status := range want {
		if got := code.HTTPStatus(); got != status {
			t.Errorf("%s -> %d, want %d", code, got, status)
		}
	}
}

func TestErrorRenderingAndWireShape(t *testing.T) {
	e := Errorf(CodeSessionNotFound, "no session %q", "x").WithDetail("have %s", "a, b")
	if got := e.Error(); got != `session_not_found: no session "x" (have a, b)` {
		t.Fatalf("Error() = %q", got)
	}
	raw, err := json.Marshal(ErrorResponse{Err: e, Applied: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The wire shape is {"error":{"code","message","detail"},"applied"}.
	var decoded struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  string `json:"detail"`
		} `json:"error"`
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if decoded.Error.Code != "session_not_found" || decoded.Applied != 3 || decoded.Error.Detail == "" {
		t.Fatalf("wire shape = %s", raw)
	}
}

func TestAsError(t *testing.T) {
	inner := Errorf(CodeBadVertex, "nope")
	wrapped := fmt.Errorf("outer: %w", inner)
	if got := AsError(wrapped, CodeInternal); got != inner {
		t.Fatalf("AsError(wrapped) = %v", got)
	}
	plain := errors.New("plain failure")
	got := AsError(plain, CodeBadRequest)
	if got.Code != CodeBadRequest || !strings.Contains(got.Message, "plain failure") {
		t.Fatalf("AsError(plain) = %+v", got)
	}
}

// TestRedirectFromError: a routing refusal names where to resend only
// while it applied nothing; one that carries Applied > 0 — a seal that
// landed between the chunks of a binary body — is no redirect, and
// neither is another code or a refusal without a detail.
func TestRedirectFromError(t *testing.T) {
	const to = "http://owner.example:8080"
	for _, tc := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"read_only, nothing applied", Errorf(CodeReadOnly, "sealed").WithDetail(to), true},
		{"wrong_node, wrapped", fmt.Errorf("outer: %w", Errorf(CodeWrongNode, "not mine").WithDetail(to)), true},
		{"read_only, 5 applied", &Error{Code: CodeReadOnly, Message: "sealed", Detail: to, Applied: 5}, false},
		{"wrong_node, 5 applied", &Error{Code: CodeWrongNode, Message: "not mine", Detail: to, Applied: 5}, false},
		{"read_only without a detail", Errorf(CodeReadOnly, "sealed"), false},
		{"another code", Errorf(CodeBadEvent, "bad").WithDetail(to), false},
		{"not an *Error", errors.New(to), false},
	} {
		u, ok := RedirectFromError(tc.err)
		if ok != tc.ok || (ok && u != to) {
			t.Errorf("%s: RedirectFromError = %q, %v; want ok %v", tc.name, u, ok, tc.ok)
		}
	}
}
