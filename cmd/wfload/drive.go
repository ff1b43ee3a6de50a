package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/client"
	"wfreach/internal/cluster"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/obs"
	wfrun "wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
)

// driver is the slice of the SDK surface a run drives, satisfied by
// both the single-server client.Client and the routing client.Cluster.
type driver interface {
	CreateSession(ctx context.Context, req client.CreateSessionRequest) (client.SessionStats, error)
	Session(ctx context.Context, name string) (client.SessionStats, error)
	DeleteSession(ctx context.Context, name string) error
	IngestFrames(ctx context.Context, session string, events []client.Event) (client.EventsResponse, error)
	ReachBatch(ctx context.Context, session string, pairs []client.ReachPair) ([]client.ReachAnswer, error)
	Lineage(ctx context.Context, session string, of int32) ([]int32, error)
}

// router is what a cluster write driver adds: which node owns a
// session, the node names, and a live move. client.Cluster has it.
type router interface {
	Owner(session string) string
	NodeNames() []string
	Move(ctx context.Context, session, target string) (client.MoveResponse, error)
}

// topo is where a run's writes and reads go, and — when a follower
// exists — the status clients the lag sampler polls.
type topo struct {
	// name titles the run: "spec/topology/sN", plus "/resume".
	name        string
	write, read driver
	// primary and follower are set exactly when reads go to a follower.
	primary, follower *client.Client
	// scrapers holds one client per server; /v1/metrics is scraped on
	// each before and after the run and the summed deltas reported as
	// server-side truth.
	scrapers []*client.Client
}

// connect turns cfg's servers — one node at -addr, a primary at -addr
// with a follower at -replica, or the cluster of a -cluster map — into
// the clients a run drives. No client retries: a run measures the
// servers, not a retry loop.
func connect(cfg config) (*topo, error) {
	t := &topo{}
	kind := "single"
	switch {
	case cfg.replica != "" && cfg.resume:
		return nil, fmt.Errorf("-replica and -resume are mutually exclusive")
	case cfg.replica != "" && cfg.clusterFile != "":
		return nil, fmt.Errorf("-cluster routes reads through the map; list followers in the map file instead of -replica")
	case cfg.clusterFile != "":
		m, err := cluster.LoadMap(cfg.clusterFile)
		if err != nil {
			return nil, err
		}
		cl, err := client.NewCluster(m, client.WithRetry(0, 0))
		if err != nil {
			return nil, err
		}
		t.write, t.read = cl, cl
		for _, name := range cl.NodeNames() {
			c, _ := cl.Node(name)
			t.scrapers = append(t.scrapers, c)
		}
		kind = "cluster"
	case cfg.replica != "":
		t.primary = client.New(cfg.addr, client.WithRetry(0, 0))
		t.follower = client.New(cfg.replica, client.WithRetry(0, 0), client.WithoutWriteRedirect())
		t.write, t.read = t.primary, t.follower
		t.scrapers = []*client.Client{t.primary, t.follower}
		kind = "replica"
	default:
		c := client.New(cfg.addr, client.WithRetry(0, 0))
		t.write, t.read = c, c
		t.scrapers = []*client.Client{c}
	}
	t.name = fmt.Sprintf("%s/%s/s%d", cfg.spec, kind, cfg.sessions)
	if cfg.resume {
		t.name += "/resume"
	}
	return t, nil
}

// result is what one run measured; -report writes it as JSON. It
// fails only on a wrong answer — a harness failure is an error, not a
// result.
type result struct {
	Name    string  `json:"name"`
	Pass    bool    `json:"pass"`
	Metrics metrics `json:"metrics"`
	// ServerMetrics holds the run's server-side truth: the change in
	// every additive /v1/metrics series over the run, summed across the
	// servers. Quantile series (not additive) and series that did not
	// move are omitted; absent entirely on scrape failure.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
}

// metrics is what a run measured, in the report's stable units. The
// fields after VerifyMismatches appear only in runs whose flags ask
// for them.
type metrics struct {
	ElapsedSec   float64 `json:"elapsed_sec"`
	IngestEvents int64   `json:"ingest_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	IngestP50US  float64 `json:"ingest_p50_us"`
	IngestP95US  float64 `json:"ingest_p95_us"`
	IngestP99US  float64 `json:"ingest_p99_us"`

	Queries        int64   `json:"queries"`
	LineageQueries int64   `json:"lineage_queries,omitempty"`
	QueryErrors    int64   `json:"query_errors"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	QueryP50US     float64 `json:"query_p50_us"`
	QueryP95US     float64 `json:"query_p95_us"`
	QueryP99US     float64 `json:"query_p99_us"`

	VerifyChecked    bool  `json:"verify_checked"`
	VerifyMismatches int64 `json:"verify_mismatches"`

	HasReplica          bool    `json:"has_replica,omitempty"`
	ReplicaLagSamples   int     `json:"replica_lag_samples,omitempty"`
	ReplicaLagMaxEvents int64   `json:"replica_lag_max_events,omitempty"`
	CatchupSec          float64 `json:"catchup_sec,omitempty"`

	// PerNode is acknowledged ingest events per node, when the write
	// driver is a cluster client.
	PerNode map[string]int64 `json:"per_node,omitempty"`
	// Move is the live move made mid-ingest, when one was asked for.
	Move *moveResult `json:"move,omitempty"`
	// RecoveredVertices is, on resume, the vertices the restarted
	// server held across the sessions; ArenaVertices how many of them
	// it serves from a mapped snapshot.
	RecoveredVertices int64 `json:"recovered_vertices,omitempty"`
	ArenaVertices     int64 `json:"arena_vertices,omitempty"`
}

// moveResult records a live session move: the nodes it left and
// reached, the events handed off, and how long the move call took.
type moveResult struct {
	Session string  `json:"session"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Events  int64   `json:"events"`
	Sec     float64 `json:"sec"`
}

// sessionLoad is one session's generated ground truth.
type sessionLoad struct {
	name   string
	events []client.Event
	oracle *wfrun.Run
}

// generate builds the per-session event streams and oracles, one
// distinct seed per session.
func generate(cfg config) ([]sessionLoad, error) {
	s, ok := service.Builtin(cfg.spec)
	if !ok {
		return nil, fmt.Errorf("unknown builtin %q (have %v)", cfg.spec, service.BuiltinNames())
	}
	g, err := spec.Compile(s)
	if err != nil {
		return nil, err
	}
	loads := make([]sessionLoad, cfg.sessions)
	for i := range loads {
		events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: cfg.size, Seed: cfg.seed + int64(i)})
		if err != nil {
			return nil, err
		}
		wire := make([]client.Event, len(events))
		for j, ev := range events {
			wire[j] = client.FromRun(ev)
		}
		loads[i] = sessionLoad{name: fmt.Sprintf("%s-%d", cfg.prefix, i), events: wire, oracle: r}
	}
	return loads, nil
}

// tally is what one run's writers and readers count.
type tally struct {
	verify bool

	ingested, queried, lineages, queryErrs, mismatches atomic.Int64
	ingestHist, queryHist                              obs.Hist

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
	vertex := func() int32 { return l.events[rng.Int63n(wm)].V }
	if lineage {
		v := vertex()
		t0 := time.Now()
		got, err := d.Lineage(ctx, name, v)
		tl.queryHist.Add(time.Since(t0))
		if err != nil {
			tl.queryErrs.Add(1)
			return fmt.Errorf("%s lineage(%d): %w", name, v, err)
		}
		tl.lineages.Add(1)
		tl.queried.Add(1)
		if tl.verify {
			slices.Sort(got)
			if !slices.Equal(got, ancestors(l.oracle.Graph, v)) {
				tl.mismatches.Add(1)
			}
		}
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

// ancestors is v's lineage on the run graph g, ascending: v and every
// vertex with a path to it, by one reverse breadth-first search. Every
// ancestor of a published vertex is published before it, so a lineage
// answer must equal it exactly.
func ancestors(g *graph.Graph, v int32) []int32 {
	seen := make([]bool, g.NumVertices())
	seen[v] = true
	out := []int32{v}
	for i := 0; i < len(out); i++ {
		for _, p := range g.In(graph.VertexID(out[i])) {
			if !seen[p] {
				seen[p] = true
				out = append(out, int32(p))
			}
		}
	}
	slices.Sort(out)
	return out
}

// metrics is the tally of a run that ingested for ingest and lasted
// total: ingest throughput is over the first, query throughput over
// the second.
func (tl *tally) metrics(ingest, total time.Duration) metrics {
	sec := total.Seconds()
	us := func(h *obs.Hist, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	return metrics{
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
// for the worst lag of the run's sessions: committed minus applied WAL
// sequence.
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
		if ls.names[s.Name] {
			worst = max(worst, s.WALSeq-applied[s.Name])
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

// scrapeNodes sums one /v1/metrics scrape across every server. A
// server that fails to scrape voids the whole cut (nil) — a partial
// sum would silently undercount.
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

// drive runs the load cfg describes against t: per session one writer
// streaming the generated events in cfg.batch-event calls, and
// cfg.readers verified readers drawing pairs below the acknowledged
// watermark until the writer is done. With cfg.resume there is no
// writer: each session's watermark is the vertex count the server
// recovered, and the readers stop after cfg.queries pairs of it. When
// the write driver is a cluster, ingest is also counted per node and
// cfg.move moves a session mid-stream. The error covers harness
// failures; wrong answers are the result's verify_mismatches.
func drive(ctx context.Context, cfg config, t *topo) (result, error) {
	if cfg.batch < 1 {
		return result{}, fmt.Errorf("batch %d: a batch carries at least one event", cfg.batch)
	}
	loads, err := generate(cfg)
	if err != nil {
		return result{}, err
	}
	rt, _ := t.write.(router)
	var moveSession, moveTarget string
	if cfg.move != "" {
		var ok bool
		if moveSession, moveTarget, ok = strings.Cut(cfg.move, "="); !ok || moveSession == "" || moveTarget == "" {
			return result{}, fmt.Errorf("move %q is not \"session=node\"", cfg.move)
		}
		if rt == nil {
			return result{}, fmt.Errorf("move %q: a live move needs a cluster", cfg.move)
		}
	}

	tl := &tally{verify: cfg.verify || cfg.resume}
	var recovered, arena int64
	marks := make([]atomic.Int64, len(loads)) // per session: the prefix readers may draw from
	total := 0
	for i, s := range loads {
		total += len(s.events)
		if !cfg.resume {
			if _, err := t.write.CreateSession(ctx, client.CreateSessionRequest{
				Name: s.name, Builtin: cfg.spec,
			}); err != nil {
				return result{}, fmt.Errorf("create session %s: %w", s.name, err)
			}
			continue
		}
		st, err := t.write.Session(ctx, s.name)
		if err != nil {
			return result{}, fmt.Errorf("session %s not recovered: %w", s.name, err)
		}
		if st.Vertices > int64(len(s.events)) {
			return result{}, fmt.Errorf("session %s: %d vertices recovered but only %d events were generated (seed mismatch?)",
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

	readers, reachBatch := cfg.readers, max(cfg.reachBatch, 1)
	if cfg.resume {
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
		if !cfg.resume {
			writers.Add(1)
			writing.Add(1)
			go func() {
				defer writers.Done()
				defer writing.Add(-1)
				for lo := 0; lo < len(s.events); lo += cfg.batch {
					hi := min(lo+cfg.batch, len(s.events))
					t0 := time.Now()
					_, err := t.write.IngestFrames(ctx, s.name, s.events[lo:hi])
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
		budget.Store(int64(cfg.queries))
		for ri := 0; ri < readers; ri++ {
			reading.Add(1)
			go func(seed int64) {
				defer reading.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; ; n++ {
					k := reachBatch
					if cfg.resume {
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
						if cfg.resume {
							return
						}
						time.Sleep(time.Millisecond)
						continue
					}
					le := cfg.lineageEvery
					err := tl.verifiedRead(ctx, t.read, s.name, s, wm, k, le > 0 && n%le == le-1, rng)
					switch {
					case err == nil:
					case cfg.resume:
						tl.fail(err)
						return
					default:
						// Most likely a follower trailing the primary's acknowledged
						// prefix; a lagging replica is not a spin target.
						time.Sleep(time.Millisecond)
					}
				}
			}(int64(i*readers+ri) ^ cfg.seed)
		}
	}

	var moved *moveResult
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
			moved = &moveResult{Session: moveSession, From: mv.From, To: mv.To,
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
			// nothing: always close with one sample of the post-ingest lag.
			ls.record(ctx)
			catchup, err = ls.waitCaughtUp(ctx)
		}
	}
	close(stopReads)
	reading.Wait()
	if tl.err != nil {
		return result{}, tl.err
	}
	if err != nil {
		return result{}, err
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
	if cfg.cleanup {
		for _, s := range loads {
			if err := t.write.DeleteSession(ctx, s.name); err != nil {
				return result{}, fmt.Errorf("cleanup %s: %w", s.name, err)
			}
		}
	}
	return result{Name: t.name, Pass: met.VerifyMismatches == 0, Metrics: met, ServerMetrics: srv}, nil
}

// printResult writes what a run measured and its verdict.
func printResult(w io.Writer, res result) {
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
}
