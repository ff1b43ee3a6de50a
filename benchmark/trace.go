package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Times are
// nanoseconds since the tracer started; Parent is the index of the
// enclosing span or -1; Layer, the name's prefix, is filled in when the
// trace is written.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end are no-ops, so the untraced runs that
// produce the end-to-end metrics pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	round int32
	open  int32 // innermost open span, -1 at top level
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), open: -1}
}

// setRound stamps the spans that follow with a round number.
func (t *tracer) setRound(r int) {
	if t != nil {
		t.round = int32(r)
	}
}

// begin opens a span nested under the innermost open one. The span name
// is "<layer>.<call>".
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Round: t.round})
	t.open = id
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count  int
	WallNS int64 // sum of durations
	SelfNS int64 // durations minus the intervals child spans cover
}

// totals sums spans by name. Self time subtracts the union of each span's direct children; spans are opened
// and closed by one thread, so siblings never overlap and the union is
// the plain sum.
func (t *tracer) totals() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	if t == nil {
		return out
	}
	covered := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			covered[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.WallNS += d
		st.SelfNS += d - covered[i]
	}
	return out
}

// perRound returns, for one span name, the summed duration in each
// round that recorded it.
func (t *tracer) perRound(name string, from int) map[int32]float64 {
	sums := map[int32]float64{}
	if t == nil {
		return sums
	}
	for i := from; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Name == name {
			sums[s.Round] += float64(s.End - s.Start)
		}
	}
	return sums
}

// writeFile flushes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	fmt.Fprintln(w, "[")
	for i := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		s := &t.spans[i]
		s.Layer, _, _ = strings.Cut(s.Name, ".")
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	fmt.Fprintln(w, "]")
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
