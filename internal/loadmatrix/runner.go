package loadmatrix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/client"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
)

// RunOptions configures a harness run.
type RunOptions struct {
	// Out receives human-readable progress lines; nil discards them.
	Out io.Writer
	// Dir is the scratch directory for durable topologies; empty uses
	// a fresh os.MkdirTemp that the run deletes when it finishes.
	Dir string
	// wrapRead, when set, stands between every connected topology and
	// its reads: tests plant wrong answers through it.
	wrapRead func(driver) driver
}

func (o RunOptions) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// ScenarioResult is one cell of the report: the scenario's bound
// dimensions, what it measured, and how its SLO gates came out.
type ScenarioResult struct {
	Name      string  `json:"name"`
	Workload  string  `json:"workload"`
	Kind      string  `json:"kind"`
	Topology  string  `json:"topology"`
	Transport string  `json:"transport"`
	Sessions  int     `json:"sessions"`
	Mix       string  `json:"mix"`
	SLO       SLO     `json:"slo"`
	Metrics   Metrics `json:"metrics"`
	// ServerMetrics holds the scenario's server-side truth: the change
	// in every additive /v1/metrics series over the run, summed across
	// the topology's nodes. Quantile series (not additive) and series
	// that did not move are omitted; absent entirely on scrape failure
	// and in reports written before the field existed.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
	Violations    []Violation        `json:"violations,omitempty"`
	Pass          bool               `json:"pass"`
}

// Report is the machine-readable outcome of a matrix run, or of one
// flag-mode scenario (RunLoad).
type Report struct {
	Name       string           `json:"name"`
	Scenarios  []ScenarioResult `json:"scenarios,omitempty"`
	Soak       *SoakResult      `json:"soak,omitempty"`
	Passed     int              `json:"passed"`
	Failed     int              `json:"failed"`
	Pass       bool             `json:"pass"`
	ElapsedSec float64          `json:"elapsed_sec"`
}

func (r *Report) add(res ScenarioResult) {
	r.Scenarios = append(r.Scenarios, res)
	if res.Pass {
		r.Passed++
	} else {
		r.Failed++
		r.Pass = false
	}
}

// Err is the report's verdict as an error, nil exactly when it passed:
// wfload's exit status in both of its modes.
func (r *Report) Err() error {
	switch {
	case r.Pass:
		return nil
	case r.Failed > 0:
		return fmt.Errorf("%d scenario(s) violated their SLOs", r.Failed)
	default:
		return errors.New("the soak violated its SLOs")
	}
}

// Load is what a run adds to a scenario's dimensions: the servers, the
// session names, and what happens to the sessions. Run fills it for its
// in-process topologies; wfload's flags fill it for running servers.
type Load struct {
	Endpoints
	// Prefix names session i "Prefix-i".
	Prefix string
	// Cleanup deletes the sessions once the run is measured.
	Cleanup bool
	// Move is "session=node": when the write driver is a cluster, that
	// session moves live once a quarter of the stream is acknowledged.
	Move string
	// Resume verifies the sessions a restarted durable server recovered
	// instead of creating and ingesting them: the readers check Queries
	// pairs per session below its recovered vertex count, and any
	// failed pair fails the run, because nothing lags there.
	Resume  bool
	Queries int
}

// Run expands the matrix and drives every scenario — sequentially, so
// scenarios do not distort each other's latencies — then the soak if
// one is declared. The returned error covers harness failures (a
// topology that would not start, a create that errored); SLO
// violations are not errors, they are the report's Pass=false.
func Run(ctx context.Context, m *Matrix, opts RunOptions) (*Report, error) {
	scratch := opts.Dir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "loadmatrix-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}

	rep := &Report{Name: m.Name, Pass: true}
	start := time.Now()
	scenarios := m.Expand()
	for i, sc := range scenarios {
		fmt.Fprintf(opts.out(), "[%d/%d] %s ...\n", i+1, len(scenarios), sc.Name)
		res, err := runScenario(ctx, sc, fmt.Sprintf("%s/sc%d", scratch, i), opts)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		rep.add(res)
	}
	if m.Soak != nil {
		sr, err := runSoak(ctx, m, scratch+"/soak", opts)
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		rep.Soak = sr
		rep.Pass = rep.Pass && sr.Pass
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	fmt.Fprintf(opts.out(), "matrix %s: %d/%d scenarios passed in %.1fs\n",
		rep.Name, rep.Passed, rep.Passed+rep.Failed, rep.ElapsedSec)
	return rep, nil
}

// runScenario launches the scenario's topology under dir, drives it,
// and tears the servers down whole.
func runScenario(ctx context.Context, sc Scenario, dir string, opts RunOptions) (ScenarioResult, error) {
	ep, stop, err := launch(sc.Topology, dir)
	if err != nil {
		return ScenarioResult{}, err
	}
	defer stop()
	return runOn(ctx, sc, Load{Endpoints: ep, Prefix: "lm"}, opts)
}

// RunLoad drives one scenario against the running servers l names —
// wfload's flag mode — and reports it as a one-scenario matrix.
func RunLoad(ctx context.Context, sc Scenario, l Load, opts RunOptions) (*Report, error) {
	fmt.Fprintf(opts.out(), "%s ...\n", sc.Name)
	start := time.Now()
	res, err := runOn(ctx, sc, l, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: sc.Name, Pass: true}
	rep.add(res)
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

// runOn connects to l's servers, drives sc against them, and prints
// the result.
func runOn(ctx context.Context, sc Scenario, l Load, opts RunOptions) (ScenarioResult, error) {
	t, err := connect(l.Endpoints, opts)
	if err != nil {
		return ScenarioResult{}, err
	}
	res, err := drive(ctx, sc, t, l)
	if err != nil {
		return ScenarioResult{}, err
	}
	printResult(opts.out(), res)
	return res, nil
}

// sessionLoad is one session's generated ground truth.
type sessionLoad struct {
	name   string
	events []run.Event
	oracle *run.Run
}

// generateLoads builds the per-session event streams and oracles for
// a workload, one distinct seed per session.
func generateLoads(w Workload, sessions int, seed int64, prefix string) ([]sessionLoad, error) {
	loads := make([]sessionLoad, sessions)
	var g *spec.Grammar
	if w.Kind == "grammar" {
		s, ok := service.Builtin(w.Spec)
		if !ok {
			return nil, fmt.Errorf("unknown builtin %q", w.Spec)
		}
		var err error
		if g, err = spec.Compile(s); err != nil {
			return nil, err
		}
	}
	for i := range loads {
		name := fmt.Sprintf("%s-%d", prefix, i)
		switch w.Kind {
		case "grammar":
			events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: w.Size, Seed: seed + int64(i)})
			if err != nil {
				return nil, err
			}
			loads[i] = sessionLoad{name: name, events: events, oracle: r}
		case "agent":
			tr, err := gen.GenerateAgentTrace(gen.AgentOptions{
				TargetSize: w.Size, Seed: seed + int64(i),
				MaxDepth: w.Depth, MaxFanout: w.Fanout, MaxRetries: w.Retries,
			})
			if err != nil {
				return nil, err
			}
			loads[i] = sessionLoad{name: name, events: tr.Events, oracle: tr.Run}
		default:
			return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
		}
	}
	return loads, nil
}

// builtinFor is the session's server-side specification: agent
// workloads replay the Agent builtin.
func (w Workload) builtinFor() string {
	if w.Kind == "agent" {
		return "Agent"
	}
	return w.Spec
}

// ingestVia sends one batch over the scenario's transport.
func ingestVia(ctx context.Context, transport string, d driver, name string, events []run.Event) error {
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = service.ToWire(ev)
	}
	var err error
	if transport == "json" {
		_, err = d.Ingest(ctx, name, wire)
	} else {
		_, err = d.IngestFrames(ctx, name, wire)
	}
	return err
}

// tally is what one run's writers and readers count.
type tally struct {
	verify bool

	ingested, queried, lineages, queryErrs, mismatches atomic.Int64
	ingestHist, queryHist                              Hist

	mu  sync.Mutex
	err error // the first failure; read once every writer and reader is done
}

func (tl *tally) fail(err error) {
	tl.mu.Lock()
	if tl.err == nil {
		tl.err = err
	}
	tl.mu.Unlock()
}

// verifiedRead is the one verified read: it draws k pairs below
// watermark wm of session name, whose ground truth is l, asks them in
// one ReachBatch — or, with lineage set, scans the lineage of one
// vertex below wm — and checks every answer against the oracle. A
// failed call, or a pair answered with an error code, counts as a
// query error and comes back as the error: behind a lagging follower
// both are expected, so the caller decides whether they fail the run.
func (tl *tally) verifiedRead(ctx context.Context, d driver, name string, l *sessionLoad, wm int64, k int, lineage bool, rng *rand.Rand) error {
	vertex := func() int32 { return int32(l.events[rng.Int63n(wm)].V) }
	if lineage {
		v := vertex()
		t0 := time.Now()
		_, err := d.Lineage(ctx, name, v)
		tl.queryHist.Add(time.Since(t0))
		if err != nil {
			tl.queryErrs.Add(1)
			return fmt.Errorf("%s lineage(%d): %w", name, v, err)
		}
		tl.lineages.Add(1)
		tl.queried.Add(1)
		return nil
	}
	pairs := make([]client.ReachPair, k)
	for i := range pairs {
		pairs[i] = client.ReachPair{From: vertex(), To: vertex()}
	}
	t0 := time.Now()
	answers, err := d.ReachBatch(ctx, name, pairs)
	tl.queryHist.Add(time.Since(t0))
	if err != nil {
		tl.queryErrs.Add(1)
		return fmt.Errorf("%s reach batch: %w", name, err)
	}
	var pairErr error
	for _, ans := range answers {
		if ans.Code != "" {
			tl.queryErrs.Add(1)
			if pairErr == nil {
				pairErr = fmt.Errorf("%s reach(%d,%d): %s: %s", name, ans.From, ans.To, ans.Code, ans.Error)
			}
			continue
		}
		tl.queried.Add(1)
		if tl.verify && ans.Reachable != l.oracle.Reaches(graph.VertexID(ans.From), graph.VertexID(ans.To)) {
			tl.mismatches.Add(1)
		}
	}
	return pairErr
}

// metrics is the tally of a run that ingested for ingest and lasted
// total: ingest throughput is over the first, query throughput over
// the second.
func (tl *tally) metrics(ingest, total time.Duration) Metrics {
	sec := total.Seconds()
	us := func(h *Hist, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	return Metrics{
		ElapsedSec:       sec,
		IngestEvents:     tl.ingested.Load(),
		EventsPerSec:     float64(tl.ingested.Load()) / ingest.Seconds(),
		IngestP50US:      us(&tl.ingestHist, 0.50),
		IngestP95US:      us(&tl.ingestHist, 0.95),
		IngestP99US:      us(&tl.ingestHist, 0.99),
		Queries:          tl.queried.Load(),
		LineageQueries:   tl.lineages.Load(),
		QueryErrors:      tl.queryErrs.Load(),
		QueriesPerSec:    float64(tl.queried.Load()) / sec,
		QueryP50US:       us(&tl.queryHist, 0.50),
		QueryP95US:       us(&tl.queryHist, 0.95),
		QueryP99US:       us(&tl.queryHist, 0.99),
		VerifyChecked:    tl.verify,
		VerifyMismatches: tl.mismatches.Load(),
	}
}

// How often the lag sampler polls while a run ingests, how often the
// catch-up wait polls after it, and how long that wait may last.
const (
	lagPeriod   = 50 * time.Millisecond
	catchupPoll = 25 * time.Millisecond
	catchupMax  = 2 * time.Minute
)

// lagSampler polls the primary's and the follower's replication status
// for the worst per-session lag: committed minus applied WAL sequence.
// A nil names set means every session the primary reports — a soak's
// set grows as it runs.
type lagSampler struct {
	primary, follower *client.Client
	names             map[string]bool
	// samples counts what record took, max is the worst of it.
	samples int
	max     int64
}

func (ls *lagSampler) once(ctx context.Context) (int64, bool) {
	pst, err := ls.primary.ReplicationStatus(ctx)
	if err != nil {
		return 0, false
	}
	fst, err := ls.follower.ReplicationStatus(ctx)
	if err != nil {
		return 0, false
	}
	applied := make(map[string]int64, len(fst.Sessions))
	for _, s := range fst.Sessions {
		applied[s.Name] = s.WALSeq
	}
	var worst int64
	for _, s := range pst.Sessions {
		if ls.names != nil && !ls.names[s.Name] {
			continue
		}
		if lag := s.WALSeq - applied[s.Name]; lag > worst {
			worst = lag
		}
	}
	return worst, true
}

func (ls *lagSampler) record(ctx context.Context) {
	if lag, ok := ls.once(ctx); ok {
		ls.samples++
		ls.max = max(ls.max, lag)
	}
}

// run records a sample every lagPeriod until stop is closed.
func (ls *lagSampler) run(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(lagPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			ls.record(ctx)
		}
	}
}

// waitCaughtUp blocks until the follower drains to the primary.
func (ls *lagSampler) waitCaughtUp(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	for {
		worst, ok := ls.once(ctx)
		if ok && worst <= 0 {
			return time.Since(start), nil
		}
		if time.Since(start) > catchupMax {
			return 0, fmt.Errorf("replica never caught up (still %d events behind after %v)", worst, catchupMax)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(catchupPoll):
		}
	}
}

// scrapeNodes sums one /v1/metrics scrape across every node of a
// topology. A node that fails to scrape voids the whole cut (nil) —
// a partial sum would silently undercount.
func scrapeNodes(ctx context.Context, nodes []*client.Client) map[string]float64 {
	sum := make(map[string]float64)
	for _, c := range nodes {
		vals, err := c.Metrics(ctx)
		if err != nil {
			return nil
		}
		for k, v := range vals {
			sum[k] += v
		}
	}
	return sum
}

// serverDelta subtracts two summed scrapes, keeping series that moved.
// Quantile samples are dropped: a quantile is a point estimate, and
// neither its difference nor its cross-node sum means anything.
func serverDelta(before, after map[string]float64) map[string]float64 {
	if before == nil || after == nil {
		return nil
	}
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if strings.Contains(k, `quantile="`) {
			continue
		}
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// drive runs one scenario against a connected topology: per session
// one writer streaming the generated events in sc.Batch-event calls,
// and sc.Mix.Readers verified readers drawing pairs below the
// acknowledged watermark until the writer is done. With l.Resume there
// is no writer: each session's watermark is the vertex count the
// server recovered, and the readers stop after l.Queries pairs of it.
// When the write driver is a cluster, ingest is also counted per node
// and l.Move moves a session mid-stream. The error covers harness
// failures; wrong answers are the result's verify_mismatches.
func drive(ctx context.Context, sc Scenario, t *topo, l Load) (ScenarioResult, error) {
	if sc.Batch < 1 {
		return ScenarioResult{}, fmt.Errorf("batch %d: a batch carries at least one event", sc.Batch)
	}
	loads, err := generateLoads(sc.Workload, sc.Sessions, sc.Seed, l.Prefix)
	if err != nil {
		return ScenarioResult{}, err
	}
	rt, _ := t.write.(router)
	var moveSession, moveTarget string
	if l.Move != "" {
		var ok bool
		if moveSession, moveTarget, ok = strings.Cut(l.Move, "="); !ok || moveSession == "" || moveTarget == "" {
			return ScenarioResult{}, fmt.Errorf("move %q is not \"session=node\"", l.Move)
		}
		if rt == nil {
			return ScenarioResult{}, fmt.Errorf("move %q: a live move needs a cluster", l.Move)
		}
	}

	tl := &tally{verify: sc.Verify || l.Resume}
	var recovered, arena int64
	marks := make([]atomic.Int64, len(loads)) // per session: the prefix readers may draw from
	total := 0
	for i, s := range loads {
		total += len(s.events)
		if !l.Resume {
			if _, err := t.write.CreateSession(ctx, client.CreateSessionRequest{
				Name: s.name, Builtin: sc.Workload.builtinFor(),
			}); err != nil {
				return ScenarioResult{}, fmt.Errorf("create session %s: %w", s.name, err)
			}
			continue
		}
		st, err := t.write.Session(ctx, s.name)
		if err != nil {
			return ScenarioResult{}, fmt.Errorf("session %s not recovered: %w", s.name, err)
		}
		if st.Vertices > int64(len(s.events)) {
			return ScenarioResult{}, fmt.Errorf("session %s: %d vertices recovered but only %d events were generated (seed mismatch?)",
				s.name, st.Vertices, len(s.events))
		}
		marks[i].Store(st.Vertices)
		recovered += st.Vertices
		arena += st.ArenaVertices
	}
	before := scrapeNodes(ctx, t.scrapers)

	// Every acknowledged batch is credited to the session's owner at
	// that moment, so a moved session's events split across its owners.
	var perNode map[string]*atomic.Int64
	if rt != nil {
		perNode = make(map[string]*atomic.Int64)
		for _, n := range rt.NodeNames() {
			perNode[n] = new(atomic.Int64)
		}
	}

	var ls *lagSampler
	lagStop, lagDone := make(chan struct{}), make(chan struct{})
	if t.follower != nil {
		ls = &lagSampler{primary: t.primary, follower: t.follower, names: make(map[string]bool, len(loads))}
		for _, s := range loads {
			ls.names[s.name] = true
		}
		go func() {
			defer close(lagDone)
			ls.run(ctx, lagStop)
		}()
	}

	readers := sc.Mix.Readers
	if l.Resume {
		readers = max(readers, 1) // a resume that reads nothing verifies nothing
	}
	// Readers go on until every writer is done and a follower has
	// caught up: a follower can trail a short stream whole, and its
	// readers must still get answers to check.
	var writers, reading sync.WaitGroup
	var writing atomic.Int64 // writers still streaming
	stopReads := make(chan struct{})
	start := time.Now()
	for i := range loads {
		s, mark := &loads[i], &marks[i]
		if !l.Resume {
			writers.Add(1)
			writing.Add(1)
			go func() {
				defer writers.Done()
				defer writing.Add(-1)
				for lo := 0; lo < len(s.events); lo += sc.Batch {
					hi := min(lo+sc.Batch, len(s.events))
					t0 := time.Now()
					err := ingestVia(ctx, sc.Transport, t.write, s.name, s.events[lo:hi])
					tl.ingestHist.Add(time.Since(t0))
					if err != nil {
						tl.fail(fmt.Errorf("ingest %s at %d: %w", s.name, lo, err))
						return
					}
					tl.ingested.Add(int64(hi - lo))
					if perNode != nil {
						perNode[rt.Owner(s.name)].Add(int64(hi - lo))
					}
					mark.Store(int64(hi))
				}
			}()
		}

		budget := new(atomic.Int64) // resume: pairs of this session left to check
		budget.Store(int64(l.Queries))
		for ri := 0; ri < readers; ri++ {
			reading.Add(1)
			go func(seed int64) {
				defer reading.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; ; n++ {
					k := sc.Mix.ReachBatch
					if l.Resume {
						left := budget.Add(-int64(k)) + int64(k)
						if left <= 0 {
							return
						}
						k = int(min(int64(k), left))
					} else {
						select {
						case <-stopReads:
							return
						default:
						}
					}
					wm := mark.Load()
					if wm == 0 {
						if l.Resume {
							return
						}
						time.Sleep(time.Millisecond)
						continue
					}
					le := sc.Mix.LineageEvery
					err := tl.verifiedRead(ctx, t.read, s.name, s, wm, k, le > 0 && n%le == le-1, rng)
					switch {
					case err == nil:
					case l.Resume:
						tl.fail(err)
						return
					default:
						// Most likely a follower trailing the primary's acknowledged
						// prefix; a lagging replica is not a spin target.
						time.Sleep(time.Millisecond)
					}
				}
			}(int64(i*readers+ri) ^ sc.Seed)
		}
	}

	var moved *MoveResult
	if moveSession != "" {
		writers.Add(1)
		go func() {
			defer writers.Done()
			// Move once a quarter of the stream is acknowledged (the
			// cluster is busy) — unless every writer has stopped short of
			// that, which only failed ingest does.
			for tl.ingested.Load() < int64(total/4) {
				if writing.Load() == 0 {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t0 := time.Now()
			mv, err := rt.Move(ctx, moveSession, moveTarget)
			if err != nil {
				tl.fail(fmt.Errorf("move %s to %s: %w", moveSession, moveTarget, err))
				return
			}
			moved = &MoveResult{Session: moveSession, From: mv.From, To: mv.To,
				Events: mv.Events, Sec: time.Since(t0).Seconds()}
		}()
	}
	writers.Wait()
	ingest := time.Since(start)
	var catchup time.Duration
	if ls != nil {
		close(lagStop)
		<-lagDone
		if tl.err == nil {
			// A run shorter than the sampling period would otherwise record
			// nothing and trip the no-samples gate: always close with one
			// sample of the post-ingest lag.
			ls.record(ctx)
			catchup, err = ls.waitCaughtUp(ctx)
		}
	}
	close(stopReads)
	reading.Wait()
	if tl.err != nil {
		return ScenarioResult{}, tl.err
	}
	if err != nil {
		return ScenarioResult{}, err
	}

	met := tl.metrics(ingest, time.Since(start))
	met.Move = moved
	met.RecoveredVertices, met.ArenaVertices = recovered, arena
	if perNode != nil {
		met.PerNode = make(map[string]int64, len(perNode))
		for n, c := range perNode {
			met.PerNode[n] = c.Load()
		}
	}
	if ls != nil {
		met.HasReplica = true
		met.CatchupSec = catchup.Seconds()
		met.ReplicaLagSamples, met.ReplicaLagMaxEvents = ls.samples, ls.max
	}

	// Server-side truth: scrape again before any cleanup, so the deltas
	// still carry the per-session ingest series.
	srv := serverDelta(before, scrapeNodes(ctx, t.scrapers))
	if l.Cleanup {
		for _, s := range loads {
			if err := t.write.DeleteSession(ctx, s.name); err != nil {
				return ScenarioResult{}, fmt.Errorf("cleanup %s: %w", s.name, err)
			}
		}
	}

	res := ScenarioResult{
		Name: sc.Name, Workload: sc.Workload.Name, Kind: sc.Workload.Kind,
		Topology: sc.Topology, Transport: sc.Transport,
		Sessions: sc.Sessions, Mix: sc.Mix.Name,
		SLO: sc.SLO, Metrics: met, ServerMetrics: srv,
		Violations: Evaluate(sc.SLO, met),
	}
	res.Pass = len(res.Violations) == 0
	return res, nil
}

// printResult writes what a scenario measured and its verdict.
func printResult(w io.Writer, res ScenarioResult) {
	m := res.Metrics
	fmt.Fprintf(w, "  ingest   %d events (%.0f events/sec), batch p50 %.0fµs p99 %.0fµs\n",
		m.IngestEvents, m.EventsPerSec, m.IngestP50US, m.IngestP99US)
	fmt.Fprintf(w, "  queries  %d ok (%d lineage), %d errors (%.0f queries/sec), p50 %.0fµs p99 %.0fµs\n",
		m.Queries, m.LineageQueries, m.QueryErrors, m.QueriesPerSec, m.QueryP50US, m.QueryP99US)
	if m.RecoveredVertices > 0 {
		fmt.Fprintf(w, "  resume   %d vertices recovered, %d of them arena-mapped\n", m.RecoveredVertices, m.ArenaVertices)
	}
	if m.VerifyChecked {
		fmt.Fprintf(w, "  verify   %d mismatches\n", m.VerifyMismatches)
	}
	if m.HasReplica {
		fmt.Fprintf(w, "  replica  lag max %d events over %d samples, caught up %.2fs after ingest\n",
			m.ReplicaLagMaxEvents, m.ReplicaLagSamples, m.CatchupSec)
	}
	for _, n := range slices.Sorted(maps.Keys(m.PerNode)) {
		fmt.Fprintf(w, "  node %s   %d events\n", n, m.PerNode[n])
	}
	if mv := m.Move; mv != nil {
		fmt.Fprintf(w, "  move     %s %s->%s, %d events handed off in %.2fs\n", mv.Session, mv.From, mv.To, mv.Events, mv.Sec)
	}
	if res.Pass {
		fmt.Fprintf(w, "  ok in %.2fs\n", m.ElapsedSec)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  FAIL %s\n", v.Reason)
	}
}
