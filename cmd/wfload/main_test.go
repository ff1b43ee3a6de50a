package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfreach/client"
	"wfreach/internal/loadmatrix"
	"wfreach/internal/replica"
	"wfreach/internal/service"
)

// runReport runs wfload with cfg plus a -report file and returns the
// one scenario the report holds.
func runReport(t *testing.T, cfg config) (loadmatrix.ScenarioResult, string) {
	t.Helper()
	cfg.reportPath = filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(cfg.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadmatrix.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, raw)
	}
	if !rep.Pass || len(rep.Scenarios) != 1 || !rep.Scenarios[0].Pass {
		t.Fatalf("report did not pass with one scenario:\n%s", raw)
	}
	return rep.Scenarios[0], out.String()
}

// TestRunAgainstInProcessServer drives the full load-generation path
// (create sessions, stream batches, interleaved verified queries,
// report) against an in-process wfserve handler.
func TestRunAgainstInProcessServer(t *testing.T) {
	srv := httptest.NewServer(service.NewHandler(service.NewRegistry()))
	defer srv.Close()

	res, out := runReport(t, config{
		addr:     srv.URL,
		spec:     "BioAID",
		size:     800,
		seed:     1,
		sessions: 2,
		batch:    64,
		readers:  2,
		verify:   true,
		prefix:   "t",
	})
	for _, want := range []string{"events/sec", "queries/sec", "p50", "p99", "verify   0 mismatches", "  ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	m := res.Metrics
	if m.IngestEvents == 0 || !m.VerifyChecked || m.VerifyMismatches != 0 {
		t.Fatalf("metrics %+v", m)
	}
	if res.Workload != "BioAID" || res.Sessions != 2 || res.Topology != "single" {
		t.Fatalf("scenario echo wrong: %+v", res)
	}
}

// TestRunWithReplica splits the workload across an in-process
// primary/follower pair: writes to the primary, reads from the
// follower, lag sampled and catch-up awaited, the report carrying the
// replica section.
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

	res, out := runReport(t, config{
		addr: psrv.URL, replica: fsrv.URL,
		spec: "RunningExample", size: 600, seed: 3,
		sessions: 2, batch: 64, readers: 2, reachBatch: 8,
		verify: true, prefix: "rep",
	})
	if !strings.Contains(out, "caught up") {
		t.Fatalf("output has no replica line:\n%s", out)
	}
	m := res.Metrics
	if res.Topology != "replica" || !m.HasReplica || m.ReplicaLagSamples == 0 || m.VerifyMismatches != 0 {
		t.Fatalf("replica section: %+v", res)
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

	cfg.addr = srv2.URL
	cfg.resume = true
	cfg.queries = 500
	cfg.reachBatch = 8
	res, out := runReport(t, cfg)
	m := res.Metrics
	if m.RecoveredVertices != ingest.Metrics.IngestEvents || m.IngestEvents != 0 {
		t.Fatalf("resume recovered %d vertices (ingested %d), ingested %d itself",
			m.RecoveredVertices, ingest.Metrics.IngestEvents, m.IngestEvents)
	}
	if m.Queries != 2*500 || m.QueryErrors != 0 || !m.VerifyChecked || m.VerifyMismatches != 0 {
		t.Fatalf("resume verification: %+v\n%s", m, out)
	}

	// The same check must fail loudly if the server knows nothing.
	empty := httptest.NewServer(service.NewHandler(service.NewRegistry()))
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
	srv := httptest.NewServer(service.NewHandler(service.NewRegistry()))
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
	if res.Workload != "RunningExample" || m.VerifyChecked {
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
	srv := httptest.NewServer(service.NewHandler(service.NewRegistry()))
	defer srv.Close()

	res, _ := runReport(t, config{
		addr: srv.URL, spec: "RunningExample",
		size: 400, seed: 7, sessions: 1, batch: 32, readers: 2,
		verify: true, reachBatch: 16, lineageEvery: 8, cleanup: true, prefix: "bat",
	})
	m := res.Metrics
	if !m.VerifyChecked || m.VerifyMismatches != 0 || m.QueryErrors != 0 {
		t.Fatalf("batched reach and lineage: %+v", m)
	}
	left, err := client.New(srv.URL).Sessions(context.Background())
	if err != nil || len(left) != 0 {
		t.Fatalf("-cleanup left sessions %v (err %v)", left, err)
	}
}
