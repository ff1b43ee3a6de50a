package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Logger writes structured logfmt lines (ts=… level=… msg=… k=v …),
// one event per line, safe for concurrent use. A nil *Logger discards
// everything, so call sites never guard.
type Logger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogger returns a logger writing to w; a nil w discards.
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		w = io.Discard
	}
	return &Logger{w: w}
}

// needsQuote reports whether a logfmt value must be quoted.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	return strings.ContainsAny(s, " \t\n\"=")
}

func formatValue(v any) string {
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case time.Duration:
		s = t.String()
	case error:
		s = t.Error()
	default:
		s = fmt.Sprintf("%v", v)
	}
	if needsQuote(s) {
		return fmt.Sprintf("%q", s)
	}
	return s
}

// log writes one line: ts, level, msg, then the key/value pairs in
// order. An odd trailing key gets the value "?!".
func (l *Logger) log(level, msg string, kv ...any) {
	if l == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ts=%s level=%s msg=%s", time.Now().UTC().Format(time.RFC3339Nano), level, formatValue(msg))
	for i := 0; i < len(kv); i += 2 {
		key := fmt.Sprintf("%v", kv[i])
		val := any("?!")
		if i+1 < len(kv) {
			val = kv[i+1]
		}
		fmt.Fprintf(&b, " %s=%s", key, formatValue(val))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// Info logs one structured line at level info.
func (l *Logger) Info(msg string, kv ...any) { l.log("info", msg, kv...) }

// Warn logs one structured line at level warn.
func (l *Logger) Warn(msg string, kv ...any) { l.log("warn", msg, kv...) }

// Error logs one structured line at level error.
func (l *Logger) Error(msg string, kv ...any) { l.log("error", msg, kv...) }

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

// RouteOf collapses a request path to its bounded route pattern —
// session names are replaced by :name so the route label's cardinality
// is the size of the API surface, not the session population.
func RouteOf(path string) string {
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	// /v1/sessions/{name}[/verb]
	if len(segs) > 2 && segs[0] == "v1" && segs[1] == "sessions" && segs[2] != "" {
		segs[2] = ":name"
	}
	return "/" + strings.Join(segs, "/")
}

// newRequestID returns a 12-hex-digit random request id.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-norand"
	}
	return hex.EncodeToString(b[:])
}

// AccessLogOptions configures the request-logging middleware.
type AccessLogOptions struct {
	// Slow is the threshold above which a request additionally logs a
	// level=warn slow-query line; zero disables slow marking.
	Slow time.Duration
	// Metrics, when set, records wf_http_requests_total{route} and
	// wf_http_request_seconds into the registry.
	Metrics *Registry
}

// AccessLog wraps a handler with structured request logging: one line
// per request with request id, method, route, status, bytes and
// duration, plus a slow-query line above the threshold. The request id
// honors an inbound X-Request-Id and is echoed on the response.
func AccessLog(next http.Handler, l *Logger, opts AccessLogOptions) http.Handler {
	var reqs *CounterVec
	var lat *Histogram
	if opts.Metrics != nil {
		reqs = opts.Metrics.CounterVec("wf_http_requests_total", "HTTP requests served, by route.", "route")
		lat = opts.Metrics.Histogram("wf_http_request_seconds", "HTTP request latency.")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := RouteOf(r.URL.Path)
		if reqs != nil {
			reqs.With(route).Inc()
			lat.Observe(dur)
		}
		l.Info("request", "id", id, "method", r.Method, "route", route,
			"path", r.URL.Path, "status", sw.status, "bytes", sw.bytes, "dur", dur)
		if opts.Slow > 0 && dur >= opts.Slow {
			l.Warn("slow request", "id", id, "method", r.Method, "route", route,
				"status", sw.status, "dur", dur, "threshold", opts.Slow)
		}
	})
}
