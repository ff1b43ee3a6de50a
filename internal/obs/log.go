package obs

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"
)

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer — the WAL tail endpoint streams.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		f.Flush()
	}
}

// noPattern is the route label of a request that reached no mux
// pattern: the mux answered it itself (OPTIONS *), or the wrapped
// handler is not a mux.
const noPattern = "(none)"

// newRequestID returns a 12-hex-digit random request id.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-norand"
	}
	return hex.EncodeToString(b[:])
}

// requestID honours an inbound X-Request-Id of 1–64 bytes of visible
// ASCII and mints one otherwise, so the echo and the log lines stay
// small whatever a caller sends.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if len(id) == 0 || len(id) > 64 {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return newRequestID()
		}
	}
	return id
}

// AccessLog wraps a handler with structured request logging: one
// record per request with request id, method, route, status, bytes and
// duration, plus a warn record at or above slow (zero disables it). The
// route is the mux pattern that served the request, so the label's
// cardinality is the size of the API surface. Every request counts in
// reg's wf_http_requests_total{route} and wf_http_request_seconds. The
// request id honours a well-formed inbound X-Request-Id and is echoed
// on the response.
func AccessLog(next http.Handler, log *slog.Logger, slow time.Duration, reg *Registry) http.Handler {
	reqs := reg.CounterVec("wf_http_requests_total", "HTTP requests served, by route.", "route")
	lat := reg.Histogram("wf_http_request_seconds", "HTTP request latency.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = noPattern
		}
		reqs.With(route).Inc()
		lat.Add(dur)
		log.Info("request", "id", id, "method", r.Method, "route", route,
			"path", r.URL.Path, "status", sw.status, "bytes", sw.bytes, "dur", dur)
		if slow > 0 && dur >= slow {
			log.Warn("slow request", "id", id, "method", r.Method, "route", route,
				"status", sw.status, "dur", dur, "threshold", slow)
		}
	})
}
