package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// config is one invocation of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool    // traced run: report the per-layer metrics
	traceOut string  // where a traced run writes its spans
	quick    bool    // test sizes, three rounds
	tmpRoot  string  // parent of the run's scratch directory
	// flipOracle corrupts one expected answer after set-up, so a test
	// can see a wrong answer fail the run.
	flipOracle bool
}

const (
	setupRepeats = 3 // setup_s is the median of this many full set-ups
	minRounds    = 3
	quickRounds  = 3
	// tracedShare of a traced run's time goes to the workload's own
	// rounds (traced and untraced alternating); the layer ledger gets
	// the rest.
	tracedShare = 0.4
)

// roundSample is what one measured round cost.
type roundSample struct {
	ops       int64
	wallNS    int64
	procCPUNS int64
	thrCPUNS  int64
	mallocs   uint64
	bytes     uint64
	batchP50  float64 // median batch latency of the round, ms
	speed     float64 // machine speed index around the round (see calib.go)
}

// measureRound runs one round of w: prepare, the garbage collection
// and the two speed-index readings are un-timed; the counters bracket
// run alone.
func measureRound(cal *calibrator, w workload, m *meter, round int) (roundSample, error) {
	if err := w.prepare(round); err != nil {
		return roundSample{}, fmt.Errorf("round %d: prepare: %w", round, err)
	}
	m.tr.setRound(round)
	runtime.GC()
	var (
		ms0, ms1 runtime.MemStats
		r        roundSample
		runErr   error
	)
	speed, err := cal.around(func() {
		runtime.ReadMemStats(&ms0)
		ops0, lat0 := m.attempted, len(m.batchMS)
		cpu0, thr0 := procCPUNS(), threadCPUNS()
		t0 := time.Now()
		runErr = w.run(m)
		wall := time.Since(t0)
		cpu1, thr1 := procCPUNS(), threadCPUNS()
		runtime.ReadMemStats(&ms1)
		r = roundSample{
			ops:       m.attempted - ops0,
			wallNS:    int64(wall),
			procCPUNS: cpu1 - cpu0,
			thrCPUNS:  thr1 - thr0,
			mallocs:   ms1.Mallocs - ms0.Mallocs,
			bytes:     ms1.TotalAlloc - ms0.TotalAlloc,
			batchP50:  median(m.batchMS[lat0:]),
		}
	})
	if runErr != nil {
		return r, fmt.Errorf("round %d: %w", round, runErr)
	}
	if err != nil {
		return r, fmt.Errorf("round %d: calibrate: %w", round, err)
	}
	r.speed = speed
	return r, nil
}

// over returns the median over rounds of f.
func over(rounds []roundSample, f func(roundSample) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// The per-round quantities the metrics are medians of. Times are
// divided by the round's speed index: they are at reference speed.
func rawRate(r roundSample) float64      { return float64(r.ops) / (float64(r.wallNS) / 1e9) }
func rate(r roundSample) float64         { return rawRate(r) * r.speed }
func cpuPerOp(r roundSample) float64     { return float64(r.procCPUNS) / 1e3 / float64(r.ops) / r.speed }
func thrPerOp(r roundSample) float64     { return float64(r.thrCPUNS) / 1e3 / float64(r.ops) / r.speed }
func batchP50(r roundSample) float64     { return r.batchP50 / r.speed }
func speedOf(r roundSample) float64      { return r.speed }
func mallocsPerOp(r roundSample) float64 { return float64(r.mallocs) / float64(r.ops) }
func bytesPerOp(r roundSample) float64   { return float64(r.bytes) / float64(r.ops) }

// runWorkload executes cfg and returns the result line. Human-readable
// lines — every metric by name with its unit — go to out.
func runWorkload(cfg config, out io.Writer) (res result, err error) {
	// One generator, pinned to its thread: an unpinned loop adds
	// goroutine migration between the two vCPUs to the noise.
	runtime.LockOSThread()
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	sz := fullSizes
	if cfg.quick {
		sz = quickSizes
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return res, err
	}
	scratch, err := os.MkdirTemp(cfg.tmpRoot, cfg.workload+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)
	cal, err := newCalibrator()
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := cal.stop(); err == nil {
			err = cerr
		}
	}()

	fmt.Fprintf(out, "workload %s seed %d: %s/%s go %s kernel %s nproc %d GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, runtime.GOOS, runtime.GOARCH, runtime.Version(), kernelRelease(), runtime.NumCPU(), procs)

	// Set-up, several times over; the last one is kept. A traced run
	// reports no setup_s and sets up once.
	repeats := setupRepeats
	if cfg.trace || cfg.quick {
		repeats = 1
	}
	var w workload
	setups := make([]float64, repeats)
	for i := range setups {
		if w, err = newWorkload(cfg.workload, cfg.seed, sz); err != nil {
			return res, err
		}
		var took time.Duration
		speed, cerr := cal.around(func() {
			t0 := time.Now()
			err = w.setup(filepath.Join(scratch, fmt.Sprintf("setup%d", i)))
			took = time.Since(t0)
		})
		setups[i] = took.Seconds() / speed
		if err == nil {
			err = cerr
		}
		if err == nil && i < repeats-1 {
			// Drop the discarded set-up before the next one allocates, so
			// peak RSS does not hang on when the collector happens to run.
			err = w.close()
			w = nil
			runtime.GC()
		}
		if err != nil {
			if w != nil {
				w.close()
			}
			return res, fmt.Errorf("set-up: %w", err)
		}
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	if cfg.flipOracle {
		w.flipOracle()
	}

	if cfg.trace {
		return runTraced(cfg, cal, w, scratch, out)
	}

	m := &meter{}
	if _, err := measureRound(cal, w, m, 0); err != nil { // warm-up, discarded
		return res, err
	}
	m.batchMS = m.batchMS[:0]
	var rounds []roundSample
	for start := time.Now(); !enough(cfg, len(rounds), start); {
		r, err := measureRound(cal, w, m, len(rounds)+1)
		if err != nil {
			return res, err
		}
		rounds = append(rounds, r)
	}
	if err := w.verify(m); err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	f, err := w.facts()
	if err != nil {
		return res, err
	}
	if f.shadowBytes != f.labelBytes {
		// The sessions and the set-up labeling disagree about the labels.
		m.failed++
	}

	values := wholeWorkload(rounds, f)
	values["setup_s"] = median(setups)
	values["peak_rss_mb"] = float64(peakRSSBytes()) / (1 << 20)
	fmt.Fprintf(out, "rounds %d measured + 1 warm-up; %d ops per round; %d batch latency samples\n",
		len(rounds), rounds[0].ops, len(m.batchMS))
	printQuartiles(out, "machine speed index over rounds (1 = quiet box; times below are divided by it)", rounds, speedOf)
	printQuartiles(out, "ops/s over rounds, as measured", rounds, rawRate)
	printQuartiles(out, "ops/s over rounds, at reference speed", rounds, rate)
	if p, ok := highestPercentile(len(m.batchMS)); ok {
		fmt.Fprintf(out, "batch latency as measured: p50 %.4f ms, p%g %.4f ms (highest percentile with at least ten samples beyond it)\n",
			median(m.batchMS), p, percentile(m.batchMS, p))
	}
	printMetrics(out, endToEnd, values)
	fmt.Fprintln(out, "not gated (per-layer metrics of the traced run), at reference speed:")
	printMetrics(out, demotedDefs, values)
	return result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   report(endToEnd, values),
	}, nil
}

// wholeWorkload derives the whole-workload metrics from measured rounds
// and the run's facts: the gated counts and the demoted candidates.
func wholeWorkload(rounds []roundSample, f facts) map[string]float64 {
	return map[string]float64{
		"ops_per_s":              over(rounds, rate),
		"batch_p50_ms":           over(rounds, batchP50),
		"cpu_us_per_op":          over(rounds, cpuPerOp),
		"allocs_per_op":          over(rounds, mallocsPerOp),
		"alloc_bytes_per_op":     over(rounds, bytesPerOp),
		"label_bytes_per_event":  float64(f.labelBytes) / float64(f.labeled),
		"label_bits_max":         float64(f.labelBitsMax),
		"stored_bytes_per_event": float64(f.storedBytes) / float64(f.stored),
	}
}

// enough reports whether the measured phase may stop: after a fixed
// round count in quick mode, else once cfg.seconds have passed and the
// median has at least minRounds rounds under it.
func enough(cfg config, rounds int, start time.Time) bool {
	if cfg.quick {
		return rounds >= quickRounds
	}
	return rounds >= minRounds && time.Since(start).Seconds() >= cfg.seconds
}

func printQuartiles(out io.Writer, what string, rounds []roundSample, f func(roundSample) float64) {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	if len(vs) < 2 {
		return
	}
	q1, q2, q3 := quartiles(vs)
	fmt.Fprintf(out, "%s: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n", what, slices.Min(vs), q1, q2, q3, slices.Max(vs))
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-36s %16.6f %s\n", d.Name, values[d.Name], d.Unit)
	}
}
