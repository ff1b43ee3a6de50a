// Command wfload drives a running wfserve through the Go client SDK
// (wfreach/client): it generates workflow runs, streams their
// execution events to the server at configurable concurrency and
// batch size, interleaves reachability (and optionally lineage)
// queries, and reports ingest/query throughput and latency
// percentiles.
//
// Usage:
//
//	wfload -matrix profiles/quick.json -report out.json
//	wfload -addr http://127.0.0.1:8080 -spec BioAID -size 10000 -sessions 4 -batch 128 -readers 4
//	wfload -addr http://127.0.0.1:8080 -spec BioAID -size 2000 -verify -reach-batch 16
//	wfload -addr http://127.0.0.1:8080 -spec BioAID -size 2000 -resume
//	wfload -addr http://127.0.0.1:8080 -replica http://127.0.0.1:8081 -verify
//	wfload -cluster cluster.json -sessions 12 -verify -move load-3=b
//
// -matrix switches wfload into scenario-matrix mode: the JSON file
// declares workloads (built-in grammars or the LLM-agent adversarial
// generator), topologies (single, replica, cluster3 — all launched
// in-process), transports, session counts and read/write mixes; the
// harness expands the cross product, drives every scenario through
// the client SDK, and gates each on its SLO assertions (p99 latency
// ceilings, a throughput floor, a replica-lag ceiling, zero verify
// mismatches). Any violated gate — or a declared soak that fails —
// exits non-zero. -report writes the machine-readable per-scenario
// report. All other workload flags are ignored in matrix mode; see
// profiles/ for ready-made matrices and docs/BENCHMARKS.md for the
// schema.
//
// -cluster drives a session-partitioned cluster instead of a single
// server: the same JSON map file the wfserve nodes load tells the
// client.Cluster router where every session lives, sessions spread
// across the nodes by consistent hashing on their names, and the
// report breaks ingest throughput down per node alongside the
// aggregate. -move "session=node" exercises a live move: once a
// quarter of the total stream is acknowledged, the named session is
// moved to the target node while its writer keeps ingesting — the
// router chases the handoff, and with -verify every answer is still
// checked against ground truth. Cluster mode routes reads through the
// map too (-replica is rejected; list followers in the map instead).
//
// -replica splits the workload across a primary/follower pair: writes
// stream to -addr while every read goes to the follower at -replica —
// the scale-out shape replication exists for. The run samples replica
// lag (the primary's committed WAL sequence minus the follower's
// applied sequence, per session) throughout, waits for the follower
// to catch up after ingest finishes, and reports lag percentiles plus
// the catch-up time; -verify checks the follower's answers against
// BFS ground truth. Replica reads tolerate vertex_not_labeled — a
// lagging follower legitimately trails the primary's acknowledged
// prefix.
//
// Ingest uses the /v1 binary frame stream and queries the /v1
// batch-reach endpoint; -reach-batch N amortizes one roundtrip over N
// reachability pairs per query call. -cleanup deletes the created
// sessions at the end.
//
// Each session gets its own generated run (distinct seeds) and its
// own writer goroutine streaming event batches; -readers query
// goroutines per session issue reach queries over the
// already-acknowledged prefix while ingestion is in flight — with
// -lineage-every N, every Nth query call is a full (paginated)
// lineage scan instead. With -verify every query answer is
// checked against BFS ground truth on the generated run.
//
// -json writes a machine-readable result report (throughput plus
// latency percentiles) to the given path, so performance runs can be
// tracked over time (see BENCH_service.json); -cpuprofile and
// -memprofile capture pprof profiles of the load generator itself.
//
// -resume is the crash/restart verification mode for a durable server
// (wfserve -data). Run a normal wfload, kill the server mid-ingest,
// restart it on the same data directory, then run wfload again with
// the same flags plus -resume: instead of creating sessions it
// regenerates the identical ground-truth runs (same seeds), reads how
// many vertices each recovered session holds, and checks -queries
// random reachability answers per session against BFS ground truth
// over that recovered prefix. Any mismatch means recovery diverged
// from the uninterrupted run and exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfreach"
	"wfreach/client"
	"wfreach/internal/loadmatrix"
)

type config struct {
	addr         string
	replica      string
	clusterFile  string
	move         string
	spec         string
	size         int
	seed         int64
	sessions     int
	batch        int
	readers      int
	verify       bool
	prefix       string
	resume       bool
	queries      int
	lineageEvery int
	reachBatch   int
	cleanup      bool
	jsonPath     string
	cpuProfile   string
	memProfile   string
	matrix       string
	reportPath   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "wfserve base URL (the primary: writes go here)")
	flag.StringVar(&cfg.replica, "replica", "", "follower base URL: send reads there, sample replica lag, wait for catch-up")
	flag.StringVar(&cfg.clusterFile, "cluster", "", "drive the session-partitioned cluster defined by this map file instead of -addr")
	flag.StringVar(&cfg.move, "move", "", "with -cluster: live-move \"session=node\" once a quarter of the stream is acknowledged")
	flag.StringVar(&cfg.spec, "spec", "BioAID", "built-in specification to load")
	flag.IntVar(&cfg.size, "size", 10000, "target vertices per generated run")
	flag.Int64Var(&cfg.seed, "seed", 1, "base generation seed (session i uses seed+i)")
	flag.IntVar(&cfg.sessions, "sessions", 2, "concurrent sessions (one writer each)")
	flag.IntVar(&cfg.batch, "batch", 128, "events per ingest batch")
	flag.IntVar(&cfg.readers, "readers", 2, "query goroutines per session")
	flag.BoolVar(&cfg.verify, "verify", false, "check query answers against BFS ground truth")
	flag.StringVar(&cfg.prefix, "prefix", "load", "session name prefix")
	flag.BoolVar(&cfg.resume, "resume", false, "verify sessions recovered by a restarted durable server instead of ingesting")
	flag.IntVar(&cfg.queries, "queries", 2000, "reach queries per session in -resume mode")
	flag.IntVar(&cfg.lineageEvery, "lineage-every", 0, "issue a lineage query every N reader query calls (0 disables)")
	flag.IntVar(&cfg.reachBatch, "reach-batch", 1, "reachability pairs per batch-reach call")
	flag.BoolVar(&cfg.cleanup, "cleanup", false, "delete the created sessions when the run finishes")
	flag.StringVar(&cfg.jsonPath, "json", "", "write a machine-readable result report to this path")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the load generator to this path")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile of the load generator to this path")
	flag.StringVar(&cfg.matrix, "matrix", "", "run the scenario-matrix harness on this spec file (in-process topologies, SLO gates)")
	flag.StringVar(&cfg.reportPath, "report", "", "with -matrix: write the machine-readable report to this path")
	flag.Parse()

	if cfg.matrix != "" {
		if err := runMatrix(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "wfload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wfload: %v\n", err)
		os.Exit(1)
	}
}

// runMatrix is -matrix mode: expand the matrix, drive every scenario
// against its in-process topology, gate on the SLOs, and exit
// non-zero on any violation.
func runMatrix(cfg config, out io.Writer) error {
	m, err := loadmatrix.ParseFile(cfg.matrix)
	if err != nil {
		return err
	}
	rep, err := loadmatrix.Run(context.Background(), m, loadmatrix.RunOptions{Out: out})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "matrix %s: %d/%d scenarios passed in %.1fs\n",
		rep.Name, rep.Passed, rep.Passed+rep.Failed, rep.ElapsedSec)
	if rep.Soak != nil {
		s := rep.Soak
		verdict := "passed"
		if !s.Pass {
			verdict = "FAILED"
		}
		fmt.Fprintf(out, "soak %s: %d live sessions over %.0fs, %d events (%.0f events/sec), %d queries — %s\n",
			s.Workload, s.LiveSessions, s.DurationSec, s.IngestEvents, s.EventsPerSec, s.Queries, verdict)
	}
	if cfg.reportPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.reportPath, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("write -report: %w", err)
		}
		fmt.Fprintf(out, "report written to %s\n", cfg.reportPath)
	}
	if !rep.Pass {
		if rep.Failed > 0 {
			return fmt.Errorf("%d scenario(s) violated their SLOs", rep.Failed)
		}
		return fmt.Errorf("the soak violated its SLOs")
	}
	return nil
}

// latencies collects durations for percentile reporting.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) percentile(p float64) time.Duration {
	if len(l.ds) == 0 {
		return 0
	}
	i := int(p * float64(len(l.ds)-1))
	return l.ds[i]
}

func (l *latencies) sorted() *latencies {
	sort.Slice(l.ds, func(i, j int) bool { return l.ds[i] < l.ds[j] })
	return l
}

// reportPercentiles is the JSON form of a latency distribution.
type reportPercentiles struct {
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
}

func toPercentiles(l *latencies) reportPercentiles {
	return reportPercentiles{
		P50NS: l.percentile(0.50).Nanoseconds(),
		P90NS: l.percentile(0.90).Nanoseconds(),
		P99NS: l.percentile(0.99).Nanoseconds(),
	}
}

// reportLag is the -replica lag section of the report: sampled
// replica lag in events (primary committed sequence minus follower
// applied sequence, max across sessions per sample) and how long the
// follower took to fully catch up once ingest stopped.
type reportLag struct {
	Samples    int     `json:"samples"`
	P50Events  int64   `json:"p50_events"`
	P90Events  int64   `json:"p90_events"`
	MaxEvents  int64   `json:"max_events"`
	CatchupSec float64 `json:"catchup_sec"`
}

// reportNode is one cluster node's slice of the ingest throughput.
type reportNode struct {
	IngestEvents int64   `json:"ingest_events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// reportMove records the -move live session transfer.
type reportMove struct {
	Session string  `json:"session"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Events  int64   `json:"events"`
	Sec     float64 `json:"sec"`
}

// reportRestore is the -resume result: how much recovered state the
// restarted server is holding and how the verification pass went.
// ArenaLabels counts labels served zero-copy from a mapped v2
// snapshot; LabelsPerSec is recovered labels over the verification
// wall-time (the server's own restore wall-time is on its stdout).
type reportRestore struct {
	Sessions     int     `json:"sessions"`
	Labels       int64   `json:"labels"`
	ArenaLabels  int64   `json:"arena_labels"`
	VerifySec    float64 `json:"verify_sec"`
	LabelsPerSec float64 `json:"labels_per_sec"`
	Queries      int64   `json:"queries"`
	Mismatches   int64   `json:"mismatches"`
}

// report is the -json result document: the workload configuration and
// the measured throughput and latency numbers, in stable units.
type report struct {
	Spec             string                `json:"spec"`
	Replica          string                `json:"replica,omitempty"`
	ReplicaLag       *reportLag            `json:"replica_lag,omitempty"`
	Cluster          string                `json:"cluster,omitempty"` // the -cluster map file
	Nodes            int                   `json:"nodes,omitempty"`
	PerNode          map[string]reportNode `json:"per_node,omitempty"`
	Move             *reportMove           `json:"move,omitempty"`
	Sessions         int                   `json:"sessions"`
	SizePerSession   int                   `json:"size_per_session"`
	Batch            int                   `json:"batch"`
	Readers          int                   `json:"readers"`
	ReachBatch       int                   `json:"reach_batch,omitempty"`
	LineageEvery     int                   `json:"lineage_every,omitempty"`
	Seed             int64                 `json:"seed"`
	ElapsedSec       float64               `json:"elapsed_sec"`
	IngestEvents     int64                 `json:"ingest_events"`
	EventsPerSec     float64               `json:"events_per_sec"`
	IngestLatency    reportPercentiles     `json:"ingest_batch_latency"`
	Queries          int64                 `json:"queries"`
	LineageQueries   int64                 `json:"lineage_queries"`
	QueryErrors      int64                 `json:"query_errors"`
	QueriesPerSec    float64               `json:"queries_per_sec"`
	QueryLatency     reportPercentiles     `json:"query_latency"`
	VerifyChecked    bool                  `json:"verify_checked"`
	VerifyMismatches int64                 `json:"verify_mismatches"`
	Restore          *reportRestore        `json:"restore,omitempty"`
}

func writeReport(path string, rep report) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// driver is the slice of the SDK surface the load generator drives,
// satisfied by both the single-server client.Client and the routing
// client.Cluster — the workload code does not care which.
type driver interface {
	CreateSession(ctx context.Context, req client.CreateSessionRequest) (client.SessionStats, error)
	Session(ctx context.Context, name string) (client.SessionStats, error)
	DeleteSession(ctx context.Context, name string) error
	IngestFrames(ctx context.Context, session string, events []client.Event) (client.EventsResponse, error)
	ReachBatch(ctx context.Context, session string, pairs []client.ReachPair) ([]client.ReachAnswer, error)
	Reach(ctx context.Context, session string, from, to int32) (bool, error)
	Lineage(ctx context.Context, session string, of int32) ([]int32, error)
}

// sessionLoad is one session's generated ground truth: the event
// stream the writer replays and the run that answers BFS oracle
// queries over it.
type sessionLoad struct {
	name   string
	events []wfreach.Event
	run    *wfreach.Run
}

// runResume is the crash/restart verification mode: the sessions are
// expected to exist already (restored by wfserve -data after a kill),
// each holding some acknowledged prefix of the regenerated stream.
// Recovery is correct iff every reachability answer over that prefix
// matches BFS ground truth on the regenerated run.
func runResume(ctx context.Context, cfg config, c driver, loads []sessionLoad, out io.Writer) error {
	fmt.Fprintf(out, "wfload: resume verification of %d session(s) against regenerated ground truth\n", len(loads))
	start := time.Now()
	var bad, checked, labels, arenaLabels int64
	for i, l := range loads {
		st, err := c.Session(ctx, l.name)
		if err != nil {
			return fmt.Errorf("session %s not recovered: %w", l.name, err)
		}
		n := int(st.Vertices)
		if n > len(l.events) {
			return fmt.Errorf("session %s: %d vertices recovered but only %d events were generated (seed mismatch?)",
				l.name, n, len(l.events))
		}
		labels += st.Vertices
		arenaLabels += st.ArenaVertices
		rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
		var mismatches, qs int64
		for q := 0; q < cfg.queries && n >= 1; q++ {
			v := l.events[rng.Int63n(int64(n))].V
			w := l.events[rng.Int63n(int64(n))].V
			reachable, err := c.Reach(ctx, l.name, int32(v), int32(w))
			if err != nil {
				return fmt.Errorf("session %s: reach(%d,%d): %w", l.name, v, w, err)
			}
			qs++
			if reachable != l.run.Reaches(v, w) {
				mismatches++
				fmt.Fprintf(out, "  MISMATCH %s: reach(%d,%d)=%v, oracle says %v\n",
					l.name, v, w, reachable, l.run.Reaches(v, w))
			}
		}
		fmt.Fprintf(out, "  %s: %d/%d vertices recovered (%d arena-mapped, durable=%v), %d queries, %d mismatches\n",
			l.name, n, len(l.events), st.ArenaVertices, st.Durable, qs, mismatches)
		bad += mismatches
		checked += qs
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "wfload: %d labels recovered (%d arena-mapped) across %d session(s), verified in %s (%.0f labels/sec)\n",
		labels, arenaLabels, len(loads), elapsed.Round(time.Millisecond),
		float64(labels)/max(elapsed.Seconds(), 1e-9))
	if cfg.jsonPath != "" {
		rep := report{
			Spec: cfg.spec, Sessions: cfg.sessions,
			SizePerSession: cfg.size, Seed: cfg.seed,
			ElapsedSec: elapsed.Seconds(), Queries: checked,
			VerifyChecked: true, VerifyMismatches: bad,
			Restore: &reportRestore{
				Sessions: len(loads), Labels: labels, ArenaLabels: arenaLabels,
				VerifySec:    elapsed.Seconds(),
				LabelsPerSec: float64(labels) / max(elapsed.Seconds(), 1e-9),
				Queries:      checked, Mismatches: bad,
			},
		}
		if err := writeReport(cfg.jsonPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "wfload: wrote report to %s\n", cfg.jsonPath)
	}
	if bad > 0 {
		return fmt.Errorf("resume verification failed: %d mismatches", bad)
	}
	fmt.Fprintf(out, "resume verification passed\n")
	return nil
}

// ingestBatch sends one event batch as a binary frame stream and
// reports how many events were acknowledged.
func ingestBatch(ctx context.Context, c driver, name string, events []wfreach.Event) (int, error) {
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = wfreach.ToWire(ev)
	}
	resp, err := c.IngestFrames(ctx, name, wire)
	return resp.Applied, err
}

func run(cfg config, out io.Writer) error {
	spec, ok := wfreach.BuiltinSpec(cfg.spec)
	if !ok {
		return fmt.Errorf("unknown builtin %q", cfg.spec)
	}
	g, err := wfreach.Compile(spec)
	if err != nil {
		return err
	}
	if cfg.reachBatch < 1 {
		cfg.reachBatch = 1
	}
	ctx := context.Background()
	// No retries: measure the server, not the retry loop.
	c := client.New(cfg.addr, client.WithRetry(0, 0))
	rc := c // reads go to the replica when one is named
	if cfg.replica != "" {
		if cfg.resume {
			return fmt.Errorf("-replica and -resume are mutually exclusive")
		}
		rc = client.New(cfg.replica, client.WithRetry(0, 0), client.WithoutWriteRedirect())
	}
	// d carries writes, rd reads; in cluster mode both are the routing
	// client, otherwise the plain one(s).
	var d, rd driver = c, rc
	var cl *client.Cluster
	var moveSession, moveTarget string
	if cfg.clusterFile != "" {
		if cfg.replica != "" {
			return fmt.Errorf("-cluster routes reads through the map; list followers in the map file instead of -replica")
		}
		m, err := wfreach.LoadClusterMap(cfg.clusterFile)
		if err != nil {
			return err
		}
		if cl, err = client.NewCluster(m, client.WithRetry(0, 0)); err != nil {
			return err
		}
		d, rd = cl, cl
	}
	if cfg.move != "" {
		if cl == nil {
			return fmt.Errorf("-move is a cluster operation; it needs -cluster")
		}
		var ok bool
		if moveSession, moveTarget, ok = strings.Cut(cfg.move, "="); !ok || moveSession == "" || moveTarget == "" {
			return fmt.Errorf("-move %q is not \"session=node\"", cfg.move)
		}
	}

	// Generate all streams up front so generation cost stays out of the
	// measured window (and so -resume can rebuild identical ground
	// truth from the same seeds).
	loads := make([]sessionLoad, cfg.sessions)
	total := 0
	for i := range loads {
		events, r, err := wfreach.GenerateEvents(g, wfreach.GenOptions{
			TargetSize: cfg.size, Seed: cfg.seed + int64(i),
		})
		if err != nil {
			return err
		}
		loads[i] = sessionLoad{name: fmt.Sprintf("%s-%d", cfg.prefix, i), events: events, run: r}
		total += len(events)
	}
	if cfg.resume {
		return runResume(ctx, cfg, d, loads, out)
	}
	fmt.Fprintf(out, "wfload: %d sessions × ~%d vertices (%d events total), batch=%d, readers=%d/session, reach-batch=%d\n",
		cfg.sessions, cfg.size, total, cfg.batch, cfg.readers, cfg.reachBatch)
	if cl != nil {
		byNode := map[string]int{}
		for _, l := range loads {
			byNode[cl.Owner(l.name)]++
		}
		fmt.Fprintf(out, "wfload: cluster of %d node(s), session placement:", len(cl.NodeNames()))
		for _, n := range cl.NodeNames() {
			fmt.Fprintf(out, " %s=%d", n, byNode[n])
		}
		fmt.Fprintln(out)
	}

	for _, l := range loads {
		if _, err := d.CreateSession(ctx, client.CreateSessionRequest{Name: l.name, Builtin: cfg.spec}); err != nil {
			return fmt.Errorf("create session %s: %w", l.name, err)
		}
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var (
		wg         sync.WaitGroup
		ingested   atomic.Int64
		queried    atomic.Int64
		lineages   atomic.Int64
		queryErrs  atomic.Int64
		mismatches atomic.Int64
		ingestLat  latencies
		queryLat   latencies
		errMu      sync.Mutex
		firstErr   error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Per-node ingest counters: in cluster mode every acknowledged batch
	// is attributed to the session's owner at that moment, so a moved
	// session's events split across its successive owners.
	perNode := map[string]*atomic.Int64{}
	if cl != nil {
		for _, n := range cl.NodeNames() {
			perNode[n] = new(atomic.Int64)
		}
	}

	// With a replica, sample its lag throughout the run: the primary's
	// committed WAL sequence minus the follower's applied sequence,
	// maxed across the run's sessions.
	names := make(map[string]bool, len(loads))
	for _, l := range loads {
		names[l.name] = true
	}
	var lagMu sync.Mutex
	var lagSamples []int64
	sessionLag := func() (int64, bool) {
		pst, err := c.ReplicationStatus(ctx)
		if err != nil {
			return 0, false
		}
		rst, err := rc.ReplicationStatus(ctx)
		if err != nil {
			return 0, false
		}
		applied := make(map[string]int64, len(rst.Sessions))
		for _, s := range rst.Sessions {
			applied[s.Name] = s.WALSeq
		}
		var worst int64
		for _, s := range pst.Sessions {
			if !names[s.Name] {
				continue
			}
			if lag := s.WALSeq - applied[s.Name]; lag > worst {
				worst = lag
			}
		}
		return worst, true
	}
	lagStop := make(chan struct{})
	var lagWG sync.WaitGroup
	if cfg.replica != "" {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			ticker := time.NewTicker(200 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-lagStop:
					return
				case <-ticker.C:
				}
				if lag, ok := sessionLag(); ok {
					lagMu.Lock()
					lagSamples = append(lagSamples, lag)
					lagMu.Unlock()
				}
			}
		}()
	}

	start := time.Now()

	// The live move: wait until a quarter of the stream is acknowledged
	// (the cluster is busy), then transfer the named session while its
	// writer keeps going.
	var moveRep *reportMove
	if moveSession != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ingested.Load() < int64(total/4) {
				time.Sleep(10 * time.Millisecond)
			}
			t0 := time.Now()
			mv, err := cl.Move(ctx, moveSession, moveTarget)
			if err != nil {
				setErr(fmt.Errorf("move %s to %s: %w", moveSession, moveTarget, err))
				return
			}
			errMu.Lock()
			moveRep = &reportMove{Session: moveSession, From: mv.From, To: mv.To,
				Events: mv.Events, Sec: time.Since(t0).Seconds()}
			errMu.Unlock()
		}()
	}

	for i := range loads {
		l := loads[i]
		watermark := new(atomic.Int64)
		done := make(chan struct{})

		wg.Add(1)
		go func() { // single writer per session
			defer wg.Done()
			defer close(done)
			for lo := 0; lo < len(l.events); lo += cfg.batch {
				hi := min(lo+cfg.batch, len(l.events))
				t0 := time.Now()
				_, err := ingestBatch(ctx, d, l.name, l.events[lo:hi])
				ingestLat.add(time.Since(t0))
				if err != nil {
					setErr(fmt.Errorf("ingest %s at %d: %w", l.name, lo, err))
					return
				}
				ingested.Add(int64(hi - lo))
				if cl != nil {
					perNode[cl.Owner(l.name)].Add(int64(hi - lo))
				}
				watermark.Store(int64(hi))
			}
		}()

		for ri := 0; ri < cfg.readers; ri++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; ; n++ {
					select {
					case <-done:
						return
					default:
					}
					wm := watermark.Load()
					if wm < 2 {
						time.Sleep(time.Millisecond)
						continue
					}
					if cfg.lineageEvery > 0 && n%cfg.lineageEvery == cfg.lineageEvery-1 {
						v := int32(l.events[rng.Int63n(wm)].V)
						t0 := time.Now()
						_, err := rd.Lineage(ctx, l.name, v)
						queryLat.add(time.Since(t0))
						if err != nil {
							queryErrs.Add(1)
							time.Sleep(time.Millisecond) // a lagging replica is not a spin target
							continue
						}
						lineages.Add(1)
						queried.Add(1)
						continue
					}
					pairs := make([]client.ReachPair, cfg.reachBatch)
					for pi := range pairs {
						pairs[pi] = client.ReachPair{
							From: int32(l.events[rng.Int63n(wm)].V),
							To:   int32(l.events[rng.Int63n(wm)].V),
						}
					}
					t0 := time.Now()
					answers, err := rd.ReachBatch(ctx, l.name, pairs)
					queryLat.add(time.Since(t0))
					if err != nil {
						queryErrs.Add(1)
						time.Sleep(time.Millisecond) // session not yet on the replica, most likely
						continue
					}
					for _, ans := range answers {
						if ans.Code != "" {
							// On a replica, an unlabeled vertex usually just
							// means lag — the pair trails the primary's
							// acknowledged prefix.
							queryErrs.Add(1)
							continue
						}
						queried.Add(1)
						if cfg.verify && ans.Reachable != l.run.Reaches(wfreach.VertexID(ans.From), wfreach.VertexID(ans.To)) {
							mismatches.Add(1)
							setErr(fmt.Errorf("query mismatch: %s reach(%d,%d)=%v", l.name, ans.From, ans.To, ans.Reachable))
						}
					}
				}
			}(int64(i*cfg.readers + ri))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	var lag *reportLag
	if cfg.replica != "" {
		close(lagStop)
		lagWG.Wait()
		// Ingest is done; time the follower draining the rest.
		catchStart := time.Now()
		deadline := catchStart.Add(2 * time.Minute)
		for {
			worst, ok := sessionLag()
			if ok && worst <= 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica never caught up (still %d events behind after %v)", worst, time.Since(catchStart).Round(time.Millisecond))
			}
			time.Sleep(50 * time.Millisecond)
		}
		catchup := time.Since(catchStart)
		lagMu.Lock()
		sort.Slice(lagSamples, func(i, j int) bool { return lagSamples[i] < lagSamples[j] })
		lag = &reportLag{Samples: len(lagSamples), CatchupSec: catchup.Seconds()}
		if n := len(lagSamples); n > 0 {
			lag.P50Events = lagSamples[int(0.50*float64(n-1))]
			lag.P90Events = lagSamples[int(0.90*float64(n-1))]
			lag.MaxEvents = lagSamples[n-1]
		}
		lagMu.Unlock()
	}

	if firstErr != nil {
		return firstErr
	}

	il, ql := ingestLat.sorted(), queryLat.sorted()
	fmt.Fprintf(out, "ingest: %d events in %v  (%.0f events/sec)\n",
		ingested.Load(), elapsed.Round(time.Millisecond),
		float64(ingested.Load())/elapsed.Seconds())
	var nodeRep map[string]reportNode
	if cl != nil {
		nodeRep = make(map[string]reportNode, len(perNode))
		for _, n := range cl.NodeNames() {
			ev := perNode[n].Load()
			nodeRep[n] = reportNode{IngestEvents: ev, EventsPerSec: float64(ev) / elapsed.Seconds()}
			fmt.Fprintf(out, "  node %s: %d events  (%.0f events/sec)\n", n, ev, float64(ev)/elapsed.Seconds())
		}
	}
	if moveRep != nil {
		fmt.Fprintf(out, "move: %s %s->%s, %d events handed off in %.2fs mid-ingest\n",
			moveRep.Session, moveRep.From, moveRep.To, moveRep.Events, moveRep.Sec)
	}
	fmt.Fprintf(out, "ingest batch latency: p50=%v p90=%v p99=%v\n",
		il.percentile(0.50).Round(time.Microsecond),
		il.percentile(0.90).Round(time.Microsecond),
		il.percentile(0.99).Round(time.Microsecond))
	fmt.Fprintf(out, "queries: %d ok (%d lineage), %d errors  (%.0f queries/sec)\n",
		queried.Load(), lineages.Load(), queryErrs.Load(), float64(queried.Load())/elapsed.Seconds())
	fmt.Fprintf(out, "query latency: p50=%v p90=%v p99=%v\n",
		ql.percentile(0.50).Round(time.Microsecond),
		ql.percentile(0.90).Round(time.Microsecond),
		ql.percentile(0.99).Round(time.Microsecond))
	if cfg.verify {
		fmt.Fprintf(out, "verify: %d mismatches over %d checked queries\n", mismatches.Load(), queried.Load())
	}
	if lag != nil {
		fmt.Fprintf(out, "replica lag: p50=%d p90=%d max=%d events over %d samples; caught up %.2fs after ingest\n",
			lag.P50Events, lag.P90Events, lag.MaxEvents, lag.Samples, lag.CatchupSec)
	}

	if cfg.cleanup {
		for _, l := range loads {
			if err := d.DeleteSession(ctx, l.name); err != nil {
				return fmt.Errorf("cleanup %s: %w", l.name, err)
			}
		}
		fmt.Fprintf(out, "cleanup: deleted %d session(s)\n", len(loads))
	}

	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if cfg.jsonPath != "" {
		rep := report{
			Spec:             cfg.spec,
			Replica:          cfg.replica,
			ReplicaLag:       lag,
			Cluster:          cfg.clusterFile,
			Nodes:            len(nodeRep),
			PerNode:          nodeRep,
			Move:             moveRep,
			Sessions:         cfg.sessions,
			SizePerSession:   cfg.size,
			Batch:            cfg.batch,
			Readers:          cfg.readers,
			ReachBatch:       cfg.reachBatch,
			LineageEvery:     cfg.lineageEvery,
			Seed:             cfg.seed,
			ElapsedSec:       elapsed.Seconds(),
			IngestEvents:     ingested.Load(),
			EventsPerSec:     float64(ingested.Load()) / elapsed.Seconds(),
			IngestLatency:    toPercentiles(il),
			Queries:          queried.Load(),
			LineageQueries:   lineages.Load(),
			QueryErrors:      queryErrs.Load(),
			QueriesPerSec:    float64(queried.Load()) / elapsed.Seconds(),
			QueryLatency:     toPercentiles(ql),
			VerifyChecked:    cfg.verify,
			VerifyMismatches: mismatches.Load(),
		}
		if err := writeReport(cfg.jsonPath, rep); err != nil {
			return fmt.Errorf("write -json report: %w", err)
		}
		fmt.Fprintf(out, "report written to %s\n", cfg.jsonPath)
	}
	return nil
}
