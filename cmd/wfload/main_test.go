package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/client"
	"wfreach/internal/obs"
	"wfreach/internal/replica"
	"wfreach/internal/service"
)

// readReport reads the -report file cfg wrote.
func readReport(t *testing.T, cfg config) result {
	t.Helper()
	raw, err := os.ReadFile(cfg.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, raw)
	}
	return res
}

// runReport runs wfload with cfg plus a -report file and returns the
// result the report holds, which must have passed.
func runReport(t *testing.T, cfg config) (result, string) {
	t.Helper()
	cfg.reportPath = filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	res := readReport(t, cfg)
	if !res.Pass {
		t.Fatalf("report did not pass: %+v", res)
	}
	return res, out.String()
}

// newRegistry is a registry over a fresh data directory, closed when
// the test ends.
func newRegistry(t *testing.T) *service.Registry {
	t.Helper()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// TestRunAgainstInProcessServer drives the full load-generation path
// (create sessions, stream batches, interleaved verified reach and
// lineage queries, report) against an in-process wfserve handler behind
// the request-metrics middleware wfserve installs, and audits the run's
// own accounting against the server's.
func TestRunAgainstInProcessServer(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(obs.AccessLog(service.NewHandler(reg), slog.New(slog.DiscardHandler), 0, reg.Obs()))
	defer srv.Close()

	res, out := runReport(t, config{
		addr:         srv.URL,
		spec:         "BioAID",
		size:         800,
		seed:         1,
		sessions:     2,
		batch:        64,
		readers:      2,
		lineageEvery: 8,
		verify:       true,
		prefix:       "t",
	})
	for _, want := range []string{"events/sec", "queries/sec", "p50", "p99", "verify   0 mismatches", "  ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	m := res.Metrics
	if m.IngestEvents == 0 || m.IngestP99US <= 0 || !m.VerifyChecked || m.VerifyMismatches != 0 || m.HasReplica {
		t.Fatalf("metrics %+v", m)
	}
	if res.Name != "BioAID/single/s2" {
		t.Fatalf("result name %q", res.Name)
	}

	// Server-side truth must agree with the client-side count: the
	// summed per-session ingest deltas equal the events sent.
	var serverIngest float64
	for k, v := range res.ServerMetrics {
		if strings.HasPrefix(k, "wf_ingest_events_total{") {
			serverIngest += v
		}
		if strings.Contains(k, `quantile="`) {
			t.Fatalf("delta kept non-additive series %s", k)
		}
	}
	if serverIngest != float64(m.IngestEvents) {
		t.Fatalf("server counted %.0f ingested events, client %d", serverIngest, m.IngestEvents)
	}
	if res.ServerMetrics["wf_http_request_seconds_count"] <= 0 {
		t.Fatalf("server metrics missing request timings: %v", res.ServerMetrics)
	}
}

// TestRunWithReplica splits the workload across an in-process
// primary/follower pair: writes to the primary, reads from the
// follower, lag sampled and catch-up awaited, the result carrying the
// replica section — for a built-in grammar and for the agent grammar.
func TestRunWithReplica(t *testing.T) {
	preg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir(), Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer preg.Close()
	psrv := httptest.NewServer(service.NewHandler(preg))
	defer psrv.Close()

	freg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir(), Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer freg.Close()
	fol := replica.New(psrv.URL, freg, replica.Options{PollInterval: 25 * time.Millisecond})
	fol.Start()
	defer fol.Close()
	fsrv := httptest.NewServer(service.NewHandler(freg))
	defer fsrv.Close()

	for _, spec := range []string{"RunningExample", "Agent"} {
		res, out := runReport(t, config{
			addr: psrv.URL, replica: fsrv.URL,
			spec: spec, size: 600, seed: 3,
			sessions: 2, batch: 64, readers: 2, reachBatch: 8,
			verify: true, prefix: "rep-" + spec,
		})
		if !strings.Contains(out, "caught up") {
			t.Fatalf("%s: output has no replica line:\n%s", spec, out)
		}
		m := res.Metrics
		if res.Name != spec+"/replica/s2" || !m.HasReplica || m.ReplicaLagSamples == 0 || m.VerifyMismatches != 0 {
			t.Fatalf("%s: replica section: %+v", spec, res)
		}
		if res.ServerMetrics["wf_wal_appends_total"] <= 0 {
			t.Fatalf("%s: no WAL appends in server metrics: %v", spec, res.ServerMetrics)
		}
	}

	// Conflicting modes are rejected up front.
	if err := run(config{addr: psrv.URL, replica: fsrv.URL, resume: true, spec: "RunningExample"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-replica with -resume accepted")
	}
}

func TestRunUnknownSpec(t *testing.T) {
	if err := run(config{spec: "NoSuchSpec", sessions: 1, batch: 8}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "NoSuchSpec") {
		t.Fatalf("unknown spec: %v", err)
	}
}

func TestRunUnreachableServer(t *testing.T) {
	cfg := config{
		addr: "http://127.0.0.1:1", spec: "RunningExample",
		size: 50, sessions: 1, batch: 16, readers: 1, prefix: "x",
	}
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

func TestWfloadBinaryBuildsAndFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the wfload binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "wfload")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// No server at the target: clean error exit, not a hang or panic.
	out, err := exec.Command(bin, "-addr", "http://127.0.0.1:1", "-spec", "RunningExample",
		"-size", "50", "-sessions", "1", "-readers", "1").CombinedOutput()
	if err == nil {
		t.Fatalf("should fail with no server:\n%s", out)
	}
	if !strings.Contains(string(out), "wfload:") {
		t.Fatalf("no error message:\n%s", out)
	}
}

// TestResumeVerifiesRestoredSessions plays the full crash drill
// in-process: ingest into a durable registry, drop it cold, restore
// the data directory into a fresh registry behind a new server, and
// let -resume mode confirm the recovered sessions answer like the
// uninterrupted run.
func TestResumeVerifiesRestoredSessions(t *testing.T) {
	dir := t.TempDir()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, SnapshotEvery: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(reg))

	cfg := config{
		addr: srv.URL, spec: "RunningExample",
		size: 500, seed: 5, sessions: 2, batch: 32, readers: 1,
		verify: true, prefix: "r",
	}
	ingest, _ := runReport(t, cfg)
	srv.Close() // no reg.Close(): the WAL was flushed per acked batch

	reg2, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(service.NewHandler(reg2))
	defer srv2.Close()

	// -queries counts reach pairs per session; the lineage scans
	// -lineage-every interleaves are on top of them.
	cfg.addr = srv2.URL
	cfg.resume = true
	cfg.queries = 2000
	cfg.reachBatch = 8
	cfg.lineageEvery = 4
	res, out := runReport(t, cfg)
	m := res.Metrics
	if m.RecoveredVertices != ingest.Metrics.IngestEvents || m.IngestEvents != 0 {
		t.Fatalf("resume recovered %d vertices (ingested %d), ingested %d itself",
			m.RecoveredVertices, ingest.Metrics.IngestEvents, m.IngestEvents)
	}
	if m.Queries-m.LineageQueries != 2*2000 || m.LineageQueries == 0 ||
		m.QueryErrors != 0 || !m.VerifyChecked || m.VerifyMismatches != 0 {
		t.Fatalf("resume verification: %+v\n%s", m, out)
	}

	// The same check must fail loudly if the server knows nothing.
	empty := httptest.NewServer(service.NewHandler(newRegistry(t)))
	defer empty.Close()
	cfg.addr = empty.URL
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("resume against an empty server should fail")
	}
}

// TestRunReportAndProfiles drives a query-heavy mixed workload
// (lineage interleaved) and checks the -report file and pprof profiles
// land on disk with sane contents.
func TestRunReportAndProfiles(t *testing.T) {
	srv := httptest.NewServer(service.NewHandler(newRegistry(t)))
	defer srv.Close()

	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	res, _ := runReport(t, config{
		addr:         srv.URL,
		spec:         "RunningExample",
		size:         400,
		seed:         5,
		sessions:     1,
		batch:        32,
		readers:      2,
		lineageEvery: 4,
		prefix:       "rep",
		cpuProfile:   cpuPath,
		memProfile:   memPath,
	})
	m := res.Metrics
	if m.IngestEvents == 0 || m.EventsPerSec <= 0 {
		t.Fatalf("report has no ingest numbers: %+v", m)
	}
	if res.Name != "RunningExample/single/s1" || m.VerifyChecked {
		t.Fatalf("report config echo wrong: %+v", res)
	}
	if m.QueryErrors > 0 {
		t.Fatalf("query errors in report: %+v", m)
	}
	if m.Queries > 0 && m.QueryP99US < m.QueryP50US {
		t.Fatalf("latency percentiles not monotone: %+v", m)
	}
	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunLegacyAndBatchModes drives a server with batched reach calls,
// lineage scans and cleanup, verifying every answer against the oracle.
// (Its first half drove the unversioned JSON surface, which is gone;
// the name is kept so the test's history stays in one place.)
func TestRunLegacyAndBatchModes(t *testing.T) {
	srv := httptest.NewServer(service.NewHandler(newRegistry(t)))
	defer srv.Close()

	cfg := config{
		addr: srv.URL, spec: "RunningExample",
		size: 400, seed: 7, sessions: 1, batch: 32, readers: 2,
		verify: true, reachBatch: 16, lineageEvery: 8, cleanup: true, prefix: "bat",
	}
	res, _ := runReport(t, cfg)
	m := res.Metrics
	// Every reader makes a verified call, and its first is a lineage
	// scan: however short the run, each scans one.
	if !m.VerifyChecked || m.VerifyMismatches != 0 || m.QueryErrors != 0 ||
		m.LineageQueries < int64(cfg.sessions*cfg.readers) {
		t.Fatalf("batched reach and lineage: %+v", m)
	}
	left, err := client.New(srv.URL).Sessions(context.Background())
	if err != nil || len(left) != 0 {
		t.Fatalf("-cleanup left sessions %v (err %v)", left, err)
	}
}

// wrongAnswers is a real read driver that negates one reach answer in
// 64 — a labeler bug as wfload would see it.
type wrongAnswers struct {
	driver
	n atomic.Int64
}

func (w *wrongAnswers) ReachBatch(ctx context.Context, session string, pairs []client.ReachPair) ([]client.ReachAnswer, error) {
	answers, err := w.driver.ReachBatch(ctx, session, pairs)
	for i := range answers {
		if answers[i].Code == "" && w.n.Add(1)%64 == 0 {
			answers[i].Reachable = !answers[i].Reachable
		}
	}
	return answers, err
}

// shortLineage is a real read driver that drops the last ancestor of
// every lineage answer.
type shortLineage struct{ driver }

func (s shortLineage) Lineage(ctx context.Context, session string, of int32) ([]int32, error) {
	ancestors, err := s.driver.Lineage(ctx, session, of)
	return ancestors[:max(len(ancestors)-1, 0)], err
}

// plantedLoad is the load the planted runs drive: two BioAID sessions,
// every answer verified.
func plantedLoad(addr, prefix string) config {
	return config{
		addr: addr, spec: "BioAID", size: 3000, seed: 3,
		sessions: 2, batch: 64, readers: 2, reachBatch: 64,
		verify: true, prefix: prefix,
	}
}

// TestEveryEntryPointCatchesAWrongAnswer plants wrong answers under
// each way wfload reads — a load's reach and lineage queries, and
// resume — and requires each to count them, fail the result and make
// the run return an error, which is what makes wfload exit non-zero.
// A resume of the same sessions without the plant must pass.
func TestEveryEntryPointCatchesAWrongAnswer(t *testing.T) {
	cases := []struct {
		name  string
		plant func(driver) driver
		load  func(t *testing.T, addr string) config
	}{
		{"flags", func(d driver) driver { return &wrongAnswers{driver: d} }, func(t *testing.T, addr string) config {
			return plantedLoad(addr, "f")
		}},
		{"lineage", func(d driver) driver { return shortLineage{d} }, func(t *testing.T, addr string) config {
			cfg := plantedLoad(addr, "l")
			cfg.lineageEvery = 1
			return cfg
		}},
		{"resume", func(d driver) driver { return &wrongAnswers{driver: d} }, func(t *testing.T, addr string) config {
			cfg := plantedLoad(addr, "r")
			cfg.readers = 0
			if err := run(cfg, &bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			cfg.readers, cfg.resume, cfg.queries = 1, true, 640
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(service.NewHandler(newRegistry(t)))
			defer srv.Close()
			cfg := tc.load(t, srv.URL)
			cfg.reportPath = filepath.Join(t.TempDir(), "report.json")
			tp, err := connect(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tp.read = tc.plant(tp.read)
			if err := runOn(cfg, tp, &bytes.Buffer{}); err == nil {
				t.Fatal("a run with planted wrong answers returned no error")
			}
			if res := readReport(t, cfg); res.Pass || res.Metrics.VerifyMismatches < 1 {
				t.Fatalf("no planted wrong answer failed the result: %+v", res)
			}

			// The same reads, unplanted, find nothing wrong.
			cfg.resume, cfg.readers, cfg.queries = true, 1, 640
			if res, _ := runReport(t, cfg); cfg.lineageEvery > 0 && res.Metrics.LineageQueries == 0 {
				t.Fatalf("the control made no lineage query: %+v", res)
			}
		})
	}
}

var errIngest = errors.New("planted ingest failure")

// failingIngest is a cluster write driver whose second ingest call,
// and every one after it, fails.
type failingIngest struct {
	*client.Cluster
	calls atomic.Int64
}

func (f *failingIngest) IngestFrames(ctx context.Context, session string, events []client.Event) (client.EventsResponse, error) {
	if f.calls.Add(1) >= 2 {
		return client.EventsResponse{}, errIngest
	}
	return f.Cluster.IngestFrames(ctx, session, events)
}

// TestMoveGivesUpWhenIngestFails pins the live move's wait: it starts
// once a quarter of the stream is acknowledged, and when every writer
// fails before that, the run must end with the ingest error instead of
// waiting for a quarter that never comes.
func TestMoveGivesUpWhenIngestFails(t *testing.T) {
	srv := httptest.NewServer(service.NewHandler(newRegistry(t)))
	defer srv.Close()
	cl, err := client.NewCluster(client.ClusterMap{Version: 1,
		Nodes: []client.ClusterNode{{Name: "n0", URL: srv.URL}}}, client.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	d := &failingIngest{Cluster: cl}
	cfg := plantedLoad(srv.URL, "m")
	cfg.readers, cfg.move = 1, "m-0=n0"

	errc := make(chan error, 1)
	go func() {
		_, err := drive(context.Background(), cfg, &topo{write: d, read: d})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, errIngest) {
			t.Fatalf("drive returned %v, want the ingest error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drive still waiting for the move 10s after ingest failed")
	}
}
