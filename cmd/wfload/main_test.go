package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfreach"
)

// TestRunAgainstInProcessServer drives the full load-generation path
// (create sessions, stream batches, interleaved verified queries,
// report) against an in-process wfserve handler.
func TestRunAgainstInProcessServer(t *testing.T) {
	srv := httptest.NewServer(wfreach.NewServiceHandler(wfreach.NewRegistry()))
	defer srv.Close()

	var out bytes.Buffer
	cfg := config{
		addr:     srv.URL,
		spec:     "BioAID",
		size:     800,
		seed:     1,
		sessions: 2,
		batch:    64,
		readers:  2,
		verify:   true,
		prefix:   "t",
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"events/sec", "queries/sec", "p50=", "p99=", "0 mismatches"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "ingest: 0 events") {
		t.Fatalf("nothing ingested:\n%s", s)
	}
}

// TestRunWithReplica splits the workload across an in-process
// primary/follower pair: writes to the primary, reads from the
// follower, lag sampled and catch-up awaited, the report carrying the
// replica section.
func TestRunWithReplica(t *testing.T) {
	preg, err := wfreach.NewDurableRegistry(wfreach.DurableOptions{Dir: t.TempDir(), Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer preg.Close()
	psrv := httptest.NewServer(wfreach.NewServiceHandler(preg))
	defer psrv.Close()

	freg, err := wfreach.NewDurableRegistry(wfreach.DurableOptions{Dir: t.TempDir(), Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer freg.Close()
	fol := wfreach.NewFollower(psrv.URL, freg, wfreach.FollowerOptions{PollInterval: 25 * time.Millisecond})
	fol.Start()
	defer fol.Close()
	fsrv := httptest.NewServer(wfreach.NewServiceHandler(freg))
	defer fsrv.Close()

	jsonPath := filepath.Join(t.TempDir(), "rep.json")
	var out bytes.Buffer
	cfg := config{
		addr: psrv.URL, replica: fsrv.URL,
		spec: "RunningExample", size: 600, seed: 3,
		sessions: 2, batch: 64, readers: 2, reachBatch: 8,
		verify: true, prefix: "rep", jsonPath: jsonPath,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"replica lag:", "caught up", "0 mismatches"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Replica != fsrv.URL || rep.ReplicaLag == nil {
		t.Fatalf("report replica section = %q / %+v", rep.Replica, rep.ReplicaLag)
	}

	// Conflicting modes are rejected up front.
	if err := run(config{addr: psrv.URL, replica: fsrv.URL, resume: true, spec: "RunningExample"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-replica with -resume accepted")
	}
}

func TestRunUnknownSpec(t *testing.T) {
	if err := run(config{spec: "NoSuchSpec"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown spec accepted")
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
	reg, err := wfreach.NewDurableRegistry(wfreach.DurableOptions{Dir: dir, SnapshotEvery: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wfreach.NewServiceHandler(reg))

	cfg := config{
		addr: srv.URL, spec: "RunningExample",
		size: 500, seed: 5, sessions: 2, batch: 32, readers: 1,
		verify: true, prefix: "r",
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	srv.Close() // no reg.Close(): the WAL was flushed per acked batch

	reg2, err := wfreach.NewDurableRegistry(wfreach.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(wfreach.NewServiceHandler(reg2))
	defer srv2.Close()

	cfg.addr = srv2.URL
	cfg.resume = true
	cfg.queries = 500
	out.Reset()
	if err := run(cfg, &out); err != nil {
		t.Fatalf("resume verification failed: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "resume verification passed") || strings.Contains(s, "MISMATCH") {
		t.Fatalf("unexpected resume report:\n%s", s)
	}

	// The same check must fail loudly if the server knows nothing.
	empty := httptest.NewServer(wfreach.NewServiceHandler(wfreach.NewRegistry()))
	defer empty.Close()
	cfg.addr = empty.URL
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("resume against an empty server should fail")
	}
}

// TestRunReportAndProfiles drives a query-heavy mixed workload
// (lineage interleaved) and checks the -json report and pprof profiles
// land on disk with sane contents.
func TestRunReportAndProfiles(t *testing.T) {
	srv := httptest.NewServer(wfreach.NewServiceHandler(wfreach.NewRegistry()))
	defer srv.Close()

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	cfg := config{
		addr:         srv.URL,
		spec:         "RunningExample",
		size:         400,
		seed:         5,
		sessions:     1,
		batch:        32,
		readers:      2,
		lineageEvery: 4,
		prefix:       "rep",
		jsonPath:     jsonPath,
		cpuProfile:   cpuPath,
		memProfile:   memPath,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "lineage") {
		t.Fatalf("no lineage count in output:\n%s", out.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, raw)
	}
	if rep.IngestEvents == 0 || rep.EventsPerSec <= 0 {
		t.Fatalf("report has no ingest numbers: %+v", rep)
	}
	if rep.Spec != "RunningExample" || rep.LineageEvery != 4 {
		t.Fatalf("report config echo wrong: %+v", rep)
	}
	if rep.QueryErrors > 0 {
		t.Fatalf("query errors in report: %+v", rep)
	}
	if rep.Queries > 0 && rep.QueryLatency.P99NS < rep.QueryLatency.P50NS {
		t.Fatalf("latency percentiles not monotone: %+v", rep.QueryLatency)
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
	srv := httptest.NewServer(wfreach.NewServiceHandler(wfreach.NewRegistry()))
	defer srv.Close()

	var out bytes.Buffer
	batched := config{
		addr: srv.URL, spec: "RunningExample",
		size: 400, seed: 7, sessions: 1, batch: 32, readers: 2,
		verify: true, reachBatch: 16, lineageEvery: 8, cleanup: true, prefix: "bat",
	}
	if err := run(batched, &out); err != nil {
		t.Fatalf("batched: %v\n%s", err, out.String())
	}
	if s := out.String(); !strings.Contains(s, "reach-batch=16") ||
		!strings.Contains(s, "0 mismatches") || !strings.Contains(s, "deleted 1 session(s)") {
		t.Fatalf("batched report:\n%s", s)
	}
}
