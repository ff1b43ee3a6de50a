package loadmatrix

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/client"
)

// SoakSample is one point-in-time health snapshot of a soak run.
type SoakSample struct {
	AtSec        float64 `json:"at_sec"`
	IngestEvents int64   `json:"ingest_events"`
	LiveSessions int     `json:"live_sessions"`
	Goroutines   int     `json:"goroutines"`
	HeapBytes    uint64  `json:"heap_bytes"`
	RSSBytes     int64   `json:"rss_bytes"`
	LagEvents    int64   `json:"lag_events,omitempty"`
}

// SoakResult is the outcome of the long-hold run: aggregate
// throughput, the health samples over time, and the SLO verdict.
type SoakResult struct {
	Workload     string  `json:"workload"`
	Topology     string  `json:"topology"`
	Sessions     int     `json:"sessions"`
	LiveSessions int     `json:"live_sessions"`
	DurationSec  float64 `json:"duration_sec"`

	IngestEvents     int64   `json:"ingest_events"`
	EventsPerSec     float64 `json:"events_per_sec"`
	Queries          int64   `json:"queries"`
	QueryErrors      int64   `json:"query_errors"`
	VerifyMismatches int64   `json:"verify_mismatches"`

	Samples    []SoakSample `json:"samples"`
	Violations []Violation  `json:"violations,omitempty"`
	Pass       bool         `json:"pass"`
}

// soakSession is one live session: its oracle (an index into the
// generated pool) and how far ingest has acknowledged.
type soakSession struct {
	name      string
	pool      int
	cursor    int // owned by the worker currently holding the session
	watermark atomic.Int64
}

// readRSS returns the process resident set size from
// /proc/self/status, or 0 where that is unavailable.
func readRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// runSoak holds Soak.Sessions live sessions against the topology for
// the configured duration: an ingest worker pool round-robins event
// batches across them, rolling in a replacement session whenever one
// exhausts its stream (so the live count only grows), readers verify
// random sessions throughout, and a sampler records lag, RSS and
// goroutine counts. Ground truth comes from a small pool of distinct
// generated traces so generation cost stays bounded however many
// sessions the soak cycles through.
func runSoak(ctx context.Context, m *Matrix, dir string, opts RunOptions) (*SoakResult, error) {
	cfg := m.Soak
	var w Workload
	for _, cand := range m.Workloads {
		if cand.Name == cfg.Workload {
			w = cand
		}
	}

	ep, teardown, err := launch(cfg.Topology, dir)
	if err != nil {
		return nil, err
	}
	defer teardown()
	t, err := connect(ep, opts)
	if err != nil {
		return nil, err
	}

	poolSize := min(16, cfg.Sessions)
	pool, err := generateLoads(w, poolSize, m.Defaults.Seed, "pool")
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(opts.out(), "soak: %s on %s, %d sessions for %ds (%d workers, %d readers, oracle pool %d)\n",
		cfg.Workload, cfg.Topology, cfg.Sessions, cfg.DurationSec, cfg.Workers, cfg.Readers, poolSize)

	tl := &tally{verify: m.Defaults.Verify}
	var created atomic.Int64 // names the next session

	// sessions is append-only: rolled-in replacements join, nothing
	// leaves — every entry stays a live, queryable session.
	var sessMu sync.RWMutex
	var sessions []*soakSession

	newSession := func() (*soakSession, error) {
		id := created.Add(1) - 1
		s := &soakSession{name: fmt.Sprintf("soak-%d", id), pool: int(id) % poolSize}
		if _, err := t.write.CreateSession(ctx, client.CreateSessionRequest{
			Name: s.name, Builtin: w.builtinFor(),
		}); err != nil {
			return nil, fmt.Errorf("create %s: %w", s.name, err)
		}
		sessMu.Lock()
		sessions = append(sessions, s)
		sessMu.Unlock()
		return s, nil
	}

	// Create the initial population concurrently — thousands of
	// serial HTTP creates would eat into the measured hold time. No
	// worker runs yet, so the work queue must hold the whole population.
	work := make(chan *soakSession, cfg.Sessions+cfg.Workers)
	{
		var cwg sync.WaitGroup
		sem := make(chan struct{}, 32)
		for i := 0; i < cfg.Sessions; i++ {
			cwg.Add(1)
			sem <- struct{}{}
			go func() {
				defer cwg.Done()
				defer func() { <-sem }()
				s, err := newSession()
				if err != nil {
					tl.fail(err)
					return
				}
				work <- s
			}()
		}
		cwg.Wait()
	}
	if tl.err != nil {
		return nil, tl.err
	}

	stop := make(chan struct{})
	start := time.Now()
	batch := m.Defaults.Batch

	var wg sync.WaitGroup
	for wi := 0; wi < cfg.Workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var s *soakSession
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				case s = <-work:
				}
				l := pool[s.pool]
				hi := min(s.cursor+batch, len(l.events))
				if err := ingestVia(ctx, "binary", t.write, s.name, l.events[s.cursor:hi]); err != nil {
					tl.fail(fmt.Errorf("ingest %s at %d: %w", s.name, s.cursor, err))
					return
				}
				tl.ingested.Add(int64(hi - s.cursor))
				s.cursor = hi
				s.watermark.Store(int64(hi))
				if hi < len(l.events) {
					work <- s
					continue
				}
				// Stream exhausted: the session stays live; a fresh one
				// rolls in to keep ingest pressure up.
				ns, err := newSession()
				if err != nil {
					tl.fail(err)
					return
				}
				work <- ns
			}
		}()
	}

	for ri := 0; ri < cfg.Readers; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				sessMu.RLock()
				s := sessions[rng.Intn(len(sessions))]
				sessMu.RUnlock()
				wm := s.watermark.Load()
				if wm == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				if tl.verifiedRead(ctx, t.read, s.name, &pool[s.pool], wm, 8, false, rng) != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}(m.Defaults.Seed + int64(ri))
	}

	// The sampler: health snapshots on the configured period, plus one
	// final snapshot as the run ends.
	var ls *lagSampler
	if t.follower != nil {
		ls = &lagSampler{primary: t.primary, follower: t.follower}
	}
	var samples []SoakSample
	takeSample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sessMu.RLock()
		live := len(sessions)
		sessMu.RUnlock()
		s := SoakSample{
			AtSec:        time.Since(start).Seconds(),
			IngestEvents: tl.ingested.Load(),
			LiveSessions: live,
			Goroutines:   runtime.NumGoroutine(),
			HeapBytes:    ms.HeapAlloc,
			RSSBytes:     readRSS(),
		}
		if ls != nil {
			if lag, ok := ls.once(ctx); ok {
				s.LagEvents = lag
			}
		}
		samples = append(samples, s)
		fmt.Fprintf(opts.out(), "soak %5.0fs: %d events, %d live sessions, %d goroutines, heap %dMB, rss %dMB, lag %d\n",
			s.AtSec, s.IngestEvents, s.LiveSessions, s.Goroutines,
			s.HeapBytes/(1<<20), s.RSSBytes/(1<<20), s.LagEvents)
	}

	deadline := time.After(time.Duration(cfg.DurationSec) * time.Second)
	ticker := time.NewTicker(time.Duration(cfg.SampleEverySec) * time.Second)
hold:
	for {
		select {
		case <-ticker.C:
			takeSample()
		case <-deadline:
			break hold
		case <-ctx.Done():
			break hold
		}
	}
	ticker.Stop()
	close(stop)
	wg.Wait()
	takeSample()
	elapsed := time.Since(start)
	if tl.err != nil {
		return nil, tl.err
	}

	// The scenario SLO gates that translate to a soak: throughput
	// floor, lag ceiling (worst sample), verification.
	met := tl.metrics(elapsed, elapsed)
	met.HasReplica = ls != nil
	met.ReplicaLagSamples = len(samples)
	for _, s := range samples {
		met.ReplicaLagMaxEvents = max(met.ReplicaLagMaxEvents, s.LagEvents)
	}
	slo := m.SLO
	slo.P99IngestUS, slo.P99QueryUS = 0, 0 // per-call latency gates are scenario gates

	sessMu.RLock()
	live := len(sessions)
	sessMu.RUnlock()
	res := &SoakResult{
		Workload: cfg.Workload, Topology: cfg.Topology,
		Sessions: cfg.Sessions, LiveSessions: live,
		DurationSec:      met.ElapsedSec,
		IngestEvents:     met.IngestEvents,
		EventsPerSec:     met.EventsPerSec,
		Queries:          met.Queries,
		QueryErrors:      met.QueryErrors,
		VerifyMismatches: met.VerifyMismatches,
		Samples:          samples,
		Violations:       Evaluate(slo, met),
	}
	if live < cfg.Sessions {
		res.Violations = append(res.Violations, Violation{
			Metric: "live_sessions", Value: float64(live), Limit: float64(cfg.Sessions),
			Reason: fmt.Sprintf("only %d live sessions held, wanted %d", live, cfg.Sessions),
		})
	}
	res.Pass = len(res.Violations) == 0

	verdict := "passed"
	if !res.Pass {
		verdict = "FAILED"
	}
	fmt.Fprintf(opts.out(), "soak %s: %d live sessions over %.0fs, %d events (%.0f events/sec), %d queries, %d mismatches — %s\n",
		res.Workload, res.LiveSessions, res.DurationSec, res.IngestEvents, res.EventsPerSec, res.Queries, res.VerifyMismatches, verdict)
	return res, nil
}
