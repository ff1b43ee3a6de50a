// Package obs is the in-process observability plane: a dependency-free
// metrics registry (atomic counters, gauges, and the log-linear
// latency histogram shared with the load harness), a Prometheus
// text-format exposition handler, and an access-log middleware that
// writes one log/slog record per request to the logger it is given and
// counts the request under its mux pattern.
//
// The package imports nothing from the rest of the module, so every
// plane — service, WAL, arena snapshots, replication, cluster,
// integrity — can hold instruments without an import cycle. Instrument
// registration is constructor-path only: a package builds its metrics
// struct once, in New*/init, and hot paths touch only the returned
// atomics (CI enforces this — see TestMetricsRegisterInConstructors).
//
// Cardinality rules: the only label the registry hands out is a single
// key per family, and labeled families cap their distinct values at
// MaxSeriesPerFamily — the overflow collapses into the "other" series.
// Per-session series are therefore bounded, and nothing is ever
// labeled per vertex or per request.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxSeriesPerFamily caps the distinct label values one labeled family
// will expose. The value that would exceed the cap — and every value
// after it — is folded into the OverflowLabel series, so a node with
// ten thousand sessions still serves a bounded scrape.
const MaxSeriesPerFamily = 32

// OverflowLabel is the label value that absorbs series beyond
// MaxSeriesPerFamily.
const OverflowLabel = "other"

// Counter is a monotonically increasing value. The zero value is
// usable but unregistered; get one from Registry.Counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored — counters never
// go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float value (seconds of lag, ratios).
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *FloatGauge) Set(f float64) { g.bits.Store(math.Float64bits(f)) }

// Value reads the gauge.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindSummary = "summary"
)

// series is one exposable time series: a name, an optional single
// label pair, and exactly one live instrument.
type series struct {
	labelValue string
	counter    *Counter
	gauge      *Gauge
	fgauge     *FloatGauge
	hist       *Hist
}

// family is one metric name: its metadata and its series.
type family struct {
	name, help, kind string
	labelKey         string // "" for unlabeled families

	mu     sync.Mutex
	order  []string // label values in first-seen order ("" for unlabeled)
	series map[string]*series
}

// Registry holds the instruments of one node. A Registry is safe for
// concurrent use; registration is idempotent (the same name returns
// the same instrument), so constructors may re-register freely.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor registers (or finds) the named family. Conflicting
// re-registration — same name, different kind or label key — panics:
// it is a programming error caught at constructor time, never under
// request load.
func (r *Registry) familyFor(name, help, kind, labelKey string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.labelKey != labelKey {
			panic(fmt.Sprintf("obs: %s re-registered as %s/%q, was %s/%q", name, kind, labelKey, f.kind, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labelKey: labelKey, series: make(map[string]*series)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// seriesFor finds or creates the series for one label value, folding
// overflow beyond MaxSeriesPerFamily into OverflowLabel.
func (f *family) seriesFor(labelValue string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labelValue]; ok {
		return s
	}
	if f.labelKey != "" && len(f.series) >= MaxSeriesPerFamily {
		if s, ok := f.series[OverflowLabel]; ok {
			return s
		}
		labelValue = OverflowLabel
	}
	s := &series{labelValue: labelValue}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		// Float-valued gauges share the gauge kind on the wire but carry
		// a distinct instrument, flagged by the \x00 label-key sentinel.
		if strings.HasPrefix(f.labelKey, "\x00") {
			s.fgauge = &FloatGauge{}
		} else {
			s.gauge = &Gauge{}
		}
	case kindSummary:
		s.hist = &Hist{}
	}
	f.series[labelValue] = s
	f.order = append(f.order, labelValue)
	return s
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.familyFor(name, help, kindCounter, "").seriesFor("").counter
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.familyFor(name, help, kindGauge, "").seriesFor("").gauge
}

// FloatGauge registers (or finds) an unlabeled float gauge. It shares
// the gauge kind on the wire.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.familyFor(name, help, kindGauge, "\x00float").seriesFor("").fgauge
}

// Histogram registers (or finds) an unlabeled latency histogram,
// exposed in the Prometheus text format as a summary: quantiles
// 0.5/0.9/0.99 plus _sum and _count. Name it *_seconds: the exposition
// divides nanoseconds down to seconds.
func (r *Registry) Histogram(name, help string) *Hist {
	return r.familyFor(name, help, kindSummary, "").seriesFor("").hist
}

// CounterVec is a counter family with one label key.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family labeled by key.
func (r *Registry) CounterVec(name, help, key string) *CounterVec {
	return &CounterVec{f: r.familyFor(name, help, kindCounter, key)}
}

// With returns the counter for one label value, creating it under the
// family's series cap.
func (v *CounterVec) With(value string) *Counter { return v.f.seriesFor(value).counter }

// GaugeVec is a gauge family with one label key.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family labeled by key.
func (r *Registry) GaugeVec(name, help, key string) *GaugeVec {
	return &GaugeVec{f: r.familyFor(name, help, kindGauge, key)}
}

// With returns the gauge for one label value.
func (v *GaugeVec) With(value string) *Gauge { return v.f.seriesFor(value).gauge }

// Forget drops the series for one label value from the family — the
// bookend of a deleted session. The overflow series is never dropped.
func (v *GaugeVec) Forget(value string) { v.f.forget(value) }

// Forget drops the series for one label value from the family.
func (v *CounterVec) Forget(value string) { v.f.forget(value) }

func (f *family) forget(value string) {
	if value == OverflowLabel {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[value]; !ok {
		return
	}
	delete(f.series, value)
	for i, v := range f.order {
		if v == value {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func (f *family) labelPrefix(extra string) func(labelValue string) string {
	return func(labelValue string) string {
		var parts []string
		if f.labelKey != "" && f.labelKey[0] != '\x00' {
			parts = append(parts, fmt.Sprintf("%s=\"%s\"", f.labelKey, escapeLabel(labelValue)))
		}
		if extra != "" {
			parts = append(parts, extra)
		}
		if len(parts) == 0 {
			return ""
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
}

// writeFamily renders one family in the Prometheus text format.
func (f *family) write(w io.Writer) {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	ss := make([]*series, 0, len(order))
	for _, lv := range order {
		ss = append(ss, f.series[lv])
	}
	f.mu.Unlock()
	if len(ss) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ss {
		labels := f.labelPrefix("")
		switch {
		case s.counter != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels(s.labelValue), s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels(s.labelValue), s.gauge.Value())
		case s.fgauge != nil:
			fmt.Fprintf(w, "%s%s %g\n", f.name, labels(s.labelValue), s.fgauge.Value())
		case s.hist != nil:
			for _, q := range []float64{0.5, 0.9, 0.99} {
				ql := f.labelPrefix(fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q)))
				fmt.Fprintf(w, "%s%s %g\n", f.name, ql(s.labelValue), float64(s.hist.Quantile(q))/1e9)
			}
			fmt.Fprintf(w, "%s_sum%s %g\n", f.name, labels(s.labelValue), float64(s.hist.Sum())/1e9)
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels(s.labelValue), s.hist.N())
		}
	}
}

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families in registration order,
// series in first-seen order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, n := range order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

// ServeHTTP serves the exposition — mount the registry itself under
// GET /v1/metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteText(w)
}
