package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/sessions/demo/events":  "/v1/sessions/:name/events",
		"/v1/sessions/demo":         "/v1/sessions/:name",
		"/v1/sessions":              "/v1/sessions",
		"/v1/metrics":               "/v1/metrics",
		"/v1/cluster/health":        "/v1/cluster/health",
		"/sessions/x/reach":         "/sessions/x/reach", // unversioned: a 404, left as it came
		"/healthz":                  "/healthz",
		"/v1/sessions/a.b-c/events": "/v1/sessions/:name/events",
	} {
		if got := RouteOf(path); got != want {
			t.Errorf("RouteOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestLoggerLogfmt(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b)
	l.Info("server started", "mode", "durable", "addr", "127.0.0.1:0", "note", "two words")
	line := b.String()
	for _, want := range []string{"level=info", `msg="server started"`, "mode=durable", `note="two words"`, "ts="} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// A nil logger must be safe to call.
	var nilLogger *Logger
	nilLogger.Warn("ignored", "k", "v")
}

func TestAccessLogMiddleware(t *testing.T) {
	var b strings.Builder
	reg := NewRegistry()
	h := AccessLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/slow") {
			time.Sleep(5 * time.Millisecond)
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte("ok"))
	}), NewLogger(&b), AccessLogOptions{Slow: time.Millisecond, Metrics: reg})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/demo/events", nil))
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("no request id on the response")
	}
	line := b.String()
	for _, want := range []string{"route=/v1/sessions/:name/events", "status=202", "bytes=2", "method=GET", "id="} {
		if !strings.Contains(line, want) {
			t.Errorf("access line %q missing %q", line, want)
		}
	}

	// An inbound X-Request-Id is honored, and a slow request warns.
	b.Reset()
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/demo/slow", nil)
	req.Header.Set("X-Request-Id", "caller-id-1")
	h.ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-Id") != "caller-id-1" {
		t.Fatalf("request id not echoed: %q", rec.Header().Get("X-Request-Id"))
	}
	if !strings.Contains(b.String(), `msg="slow request"`) || !strings.Contains(b.String(), "level=warn") {
		t.Fatalf("no slow-request warn line in %q", b.String())
	}

	vals := reg.Values()
	if vals[`wf_http_requests_total{route="/v1/sessions/:name/events"}`] != 1 {
		t.Fatalf("request counter wrong: %v", vals)
	}
	if vals["wf_http_request_seconds_count"] != 2 {
		t.Fatalf("latency histogram counted %g requests, want 2", vals["wf_http_request_seconds_count"])
	}
}
