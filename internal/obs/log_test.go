package obs

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAccessLogMiddleware(t *testing.T) {
	var b strings.Builder
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sessions/{name}/events", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte("ok"))
	})
	mux.HandleFunc("/v1/sessions/{name}/slow", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
	})
	h := AccessLog(mux, slog.New(slog.NewTextHandler(&b, nil)), time.Millisecond, reg)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/demo/events", nil))
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("no request id on the response")
	}
	line := b.String()
	for _, want := range []string{"level=INFO", "msg=request", "route=/v1/sessions/{name}/events",
		"path=/v1/sessions/demo/events", "status=202", "bytes=2", "method=GET", "id=", "dur="} {
		if !strings.Contains(line, want) {
			t.Errorf("access line %q missing %q", line, want)
		}
	}

	// A well-formed inbound X-Request-Id is honoured, and a slow
	// request warns.
	b.Reset()
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/demo/slow", nil)
	req.Header.Set("X-Request-Id", "caller-id-1")
	h.ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-Id") != "caller-id-1" {
		t.Fatalf("request id not echoed: %q", rec.Header().Get("X-Request-Id"))
	}
	if !strings.Contains(b.String(), `msg="slow request"`) || !strings.Contains(b.String(), "level=WARN") {
		t.Fatalf("no slow-request warn line in %q", b.String())
	}

	// An id that is too long or not visible ASCII is replaced by a
	// minted one, on the response and in the log.
	for name, bad := range map[string]string{
		"100 KiB": strings.Repeat("x", 100<<10),
		"space":   "caller id",
	} {
		b.Reset()
		rec = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodGet, "/v1/sessions/demo/events", nil)
		req.Header.Set("X-Request-Id", bad)
		h.ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-Id")
		if got == bad || len(got) != 12 {
			t.Errorf("%s id: echoed %.40q, want a minted 12-digit id", name, got)
		}
		if !strings.Contains(b.String(), "id="+got+" ") {
			t.Errorf("%s id: log %.200q does not carry the minted id %q", name, b.String(), got)
		}
	}

	vals := scrape(t, reg)
	if got := vals[`wf_http_requests_total{route="/v1/sessions/{name}/events"}`]; got != 3 {
		t.Fatalf("request counter = %g, want 3: %v", got, vals)
	}
	if vals["wf_http_request_seconds_count"] != 4 {
		t.Fatalf("latency histogram counted %g requests, want 4", vals["wf_http_request_seconds_count"])
	}
}
