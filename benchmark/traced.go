package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"
)

// runTraced is the traced run of a workload: the per-layer metrics.
// End-to-end metrics are never taken from it.
//
// It spends tracedShare of its time on the workload's own rounds,
// alternating untraced and traced ones — the traced ones record a span
// around every call the generator makes, and the difference in ops/s
// between the two kinds is trace.overhead_pct — and the rest on the
// layer ledger (see layers.go), whose spans end up in the same trace.
func runTraced(cfg config, cal *calibrator, w workload, scratch string, out io.Writer) (res result, err error) {
	tr := newTracer()
	plain, traced := &meter{}, &meter{tr: tr}
	if _, err := measureRound(cal, w, plain, 0); err != nil { // warm-up, discarded
		return res, err
	}
	plain.batchMS = plain.batchMS[:0]
	var plainRounds, tracedRounds []roundSample
	start := time.Now()
	for n := 1; ; n += 2 {
		rp, err := measureRound(cal, w, plain, n)
		if err != nil {
			return res, err
		}
		rt, err := measureRound(cal, w, traced, n+1)
		if err != nil {
			return res, err
		}
		plainRounds, tracedRounds = append(plainRounds, rp), append(tracedRounds, rt)
		if cfg.quick || (len(plainRounds) >= 2 && time.Since(start).Seconds() >= cfg.seconds*tracedShare) {
			break
		}
	}
	if err := w.verify(traced); err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	f, err := w.facts()
	if err != nil {
		return res, err
	}
	if f.shadowBytes != f.labelBytes {
		traced.failed++
	}

	l, err := newLedger(tr, cal, w, cfg.seed, cfg.workload == "mixed_inproc", filepath.Join(scratch, "ledger"))
	if err != nil {
		return res, fmt.Errorf("ledger: %w", err)
	}
	for r := 0; ; r++ {
		if err := l.round(1000 + r); err != nil {
			return res, err
		}
		if cfg.quick || time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}

	httpKind := "ingest"
	if cfg.workload == "reach_http" {
		httpKind = "reach"
	}
	values := l.values(httpKind)
	for name, v := range wholeWorkload(plainRounds, f) {
		values[name] = v
	}
	lens := make([]float64, len(f.labelLens))
	for i, n := range f.labelLens {
		lens[i] = float64(n)
	}
	values["label.bytes_p50"] = median(lens)
	values["label.bytes_p99"] = percentile(lens, 99)
	values["label.entries_mean"] = float64(f.labelEntries) / float64(len(lens))
	values["client.rtt_us_per_batch"] = over(tracedRounds, batchP50) * 1e3
	values["client.batch_p99_ms"] = percentile(traced.batchMS, 99) / over(tracedRounds, speedOf)
	values["client.gen_thread_cpu_us_per_op"] = over(plainRounds, thrPerOp)
	// Each traced round against the untraced round just before it: the
	// two share the machine's state better than two medians would.
	slowdown := make([]float64, len(tracedRounds))
	for i := range tracedRounds {
		slowdown[i] = 100 * (1 - rate(tracedRounds[i])/rate(plainRounds[i]))
	}
	values["trace.overhead_pct"] = median(slowdown)

	fmt.Fprintf(out, "traced run: %d untraced + %d traced workload rounds, %d ledger rounds, %d spans\n",
		len(plainRounds), len(tracedRounds), l.rounds, len(tr.spans))
	printSpans(out, tr)
	printMetrics(out, perLayer, values)
	if cfg.traceOut != "" {
		if err := tr.writeFile(cfg.traceOut); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "trace written to %s\n", cfg.traceOut)
	}
	attempted := plain.attempted + traced.attempted + l.attempted
	failed := plain.failed + traced.failed + l.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: report(perLayer, values)}, nil
}

// printSpans prints the per-layer table: for every span name its count,
// total time, and self time (the span minus what its children cover).
func printSpans(out io.Writer, tr *tracer) {
	totals := tr.totals()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(out, "%-28s %9s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		t := totals[n]
		fmt.Fprintf(out, "%-28s %9d %14.3f %14.3f\n", n, t.Count, float64(t.WallNS)/1e6, float64(t.SelfNS)/1e6)
	}
}
