package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"wfreach"
	"wfreach/client"
	"wfreach/internal/gen"
)

func buildOnce(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives the wfserve binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "wfserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// startServer launches the binary on an ephemeral port and returns its
// base URL, read from the logged listen address.
func startServer(t *testing.T, args ...string) string {
	base, _ := startServerCmd(t, buildOnce(t), args...)
	return base
}

// startServerCmd is startServer with a prebuilt binary, also handing
// back the process so tests can kill it abruptly. The server's output
// passes through to the test's own.
func startServerCmd(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	return startServerTo(t, bin, os.Stdout, os.Stderr, args...)
}

// startServerTo starts the server with its stdout and stderr written to
// the given writers. The base URL comes from the server's
// msg=listening record on stderr; exec's copy keeps draining stderr
// after it, so an access-log record never blocks on a full pipe.
func startServerTo(t *testing.T, bin string, stdout, stderr io.Writer, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	tap := &listenTap{w: stderr, addr: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = stdout, tap
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	select {
	case addr := <-tap.addr:
		return "http://" + addr, cmd
	case <-time.After(10 * time.Second):
		t.Fatal("server never logged its listen address")
		return "", nil
	}
}

// listenTap passes the server's stderr on to w and sends the address
// of the first msg=listening record to addr.
type listenTap struct {
	w    io.Writer
	addr chan string
	line []byte // the unfinished line, until the address is found
	sent bool
}

func (l *listenTap) Write(p []byte) (int, error) {
	if !l.sent {
		l.line = append(l.line, p...)
		for {
			i := bytes.IndexByte(l.line, '\n')
			if i < 0 {
				break
			}
			if _, rest, ok := strings.Cut(string(l.line[:i]), " msg=listening addr="); ok {
				addr, _, _ := strings.Cut(rest, " ")
				l.addr <- addr
				l.sent, l.line = true, nil
				break
			}
			l.line = l.line[i+1:]
		}
	}
	return l.w.Write(p)
}

// TestWfserveWritesOneLog: a serving node writes nothing on stdout, and
// every line on stderr is one log/slog text record — startup, the
// access log and the shutdown alike.
func TestWfserveWritesOneLog(t *testing.T) {
	bin := buildOnce(t)
	var stdout, stderr bytes.Buffer
	base, cmd := startServerTo(t, bin, &stdout, &stderr, "-data", t.TempDir(), "-session", "one=RunningExample")
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("server did not exit cleanly on SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit within 15s of SIGTERM")
	}

	if stdout.Len() != 0 {
		t.Errorf("a serving node wrote to stdout:\n%s", stdout.String())
	}
	record := regexp.MustCompile(`^time=\S+ level=(DEBUG|INFO|WARN|ERROR) msg=("[^"]*"|\S+)( \S+=("[^"]*"|\S*))*$`)
	msgs := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n") {
		m := record.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("stderr line is not a slog text record: %q", line)
			continue
		}
		msgs[strings.Trim(m[2], `"`)] = true
	}
	for _, want := range []string{"listening", "server started", "request", "shutdown complete"} {
		if !msgs[want] {
			t.Errorf("no msg=%q record on stderr:\n%s", want, stderr.String())
		}
	}
}

func TestWfserveEndToEnd(t *testing.T) {
	base := startServer(t, "-data", t.TempDir())

	// Create a session on a built-in spec.
	body, _ := json.Marshal(map[string]string{"name": "e2e", "builtin": "RunningExample"})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	// Stream a generated execution and query it.
	g := wfreach.MustCompile(wfreach.RunningExample())
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	body, _ = json.Marshal(map[string]any{"events": wire})
	resp, err = http.Post(base+"/v1/sessions/e2e/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}

	var pairs []client.ReachPair
	for i := 0; i < 50; i++ {
		pairs = append(pairs, client.ReachPair{From: int32(events[i%len(events)].V), To: int32(events[(i*13)%len(events)].V)})
	}
	assertReach(t, base, "e2e", r, pairs)
}

// assertReach asks the pairs of the session in one batch and checks
// every answer against the BFS oracle.
func assertReach(t *testing.T, base, session string, r *wfreach.Run, pairs []client.ReachPair) {
	t.Helper()
	answers, err := client.New(base).ReachBatch(context.Background(), session, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if want := r.Reaches(wfreach.VertexID(a.From), wfreach.VertexID(a.To)); a.Code != "" || a.Reachable != want {
			t.Fatalf("reach %+v, oracle %v", a, want)
		}
	}
}

func TestWfservePrecreatedSession(t *testing.T) {
	base := startServer(t, "-data", t.TempDir(), "-session", "pre=BioAID")
	resp, err := http.Get(base + "/v1/sessions/pre")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st client.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "pre" || st.Class != "linear-recursive" {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWfserveBadSessionFlag: a server that cannot start as asked exits
// non-zero — a malformed or unknown -session, or no -data at all, which
// is a usage error (exit 2, the usage on stderr) that creates nothing.
func TestWfserveBadSessionFlag(t *testing.T) {
	bin := buildOnce(t)
	for _, tc := range []struct {
		args []string
		code int // 0: any failure
	}{
		{args: []string{"-data", t.TempDir(), "-session", "nonsense"}},
		{args: []string{"-data", t.TempDir(), "-session", "x=NoSuchSpec"}},
		{args: []string{"-session", "x=BioAID"}, code: 2},
		{args: nil, code: 2},
	} {
		cwd := t.TempDir()
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		cmd.Dir = cwd
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || (tc.code != 0 && exit.ExitCode() != tc.code) {
			t.Fatalf("args %v: %v, want exit status %d:\n%s", tc.args, err, tc.code, out)
		}
		if tc.code == 2 {
			if !strings.Contains(string(out), "-data is required") || !strings.Contains(string(out), "Usage") {
				t.Fatalf("args %v: no usage message:\n%s", tc.args, out)
			}
			if made, err := os.ReadDir(cwd); err != nil || len(made) != 0 {
				t.Fatalf("args %v: a refused start created %v (%v)", tc.args, made, err)
			}
		}
	}
}

// TestWfserveCrashRecovery is the end-to-end durability check: a
// server with -data is killed (SIGKILL, no shutdown path) while a
// client is streaming events; a second server on the same directory
// must recover the session and answer every reachability query over
// the recovered prefix exactly as an uninterrupted run would —
// verified against BFS ground truth on the generated run.
func TestWfserveCrashRecovery(t *testing.T) {
	bin := buildOnce(t)
	dataDir := t.TempDir()
	base, cmd := startServerCmd(t, bin, "-data", dataDir)

	body, _ := json.Marshal(map[string]string{"name": "crash", "builtin": "RunningExample"})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	g := wfreach.MustCompile(wfreach.RunningExample())
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 600, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Stream in small batches from a goroutine and SIGKILL the server
	// while the stream is in flight.
	const batch = 20
	var acked atomic.Int64
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for lo := 0; lo < len(events); lo += batch {
			hi := lo + batch
			if hi > len(events) {
				hi = len(events)
			}
			wire := make([]client.Event, 0, hi-lo)
			for _, ev := range events[lo:hi] {
				wire = append(wire, client.FromRun(ev))
			}
			b, _ := json.Marshal(map[string]any{"events": wire})
			resp, err := http.Post(base+"/v1/sessions/crash/events", "application/json", bytes.NewReader(b))
			if err != nil {
				return // the kill landed
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			acked.Store(int64(hi))
		}
	}()
	for acked.Load() < 5*batch {
		time.Sleep(time.Millisecond)
	}
	_ = cmd.Process.Kill()
	<-streamDone
	_ = cmd.Wait()
	ackedN := int(acked.Load())
	if ackedN >= len(events) {
		t.Fatalf("stream finished before the kill; raise the event count")
	}

	// Restart on the same directory.
	base2, _ := startServerCmd(t, bin, "-data", dataDir)
	resp, err = http.Get(base2 + "/v1/sessions/crash")
	if err != nil {
		t.Fatal(err)
	}
	var st client.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	n := int(st.Vertices)
	// The recovered session has an open log holding every recovered
	// event.
	resp, err = http.Get(base2 + "/v1/sessions/crash/integrity")
	if err != nil {
		t.Fatal(err)
	}
	var integ client.SessionIntegrity
	err = json.NewDecoder(resp.Body).Decode(&integ)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || integ.WALSeq != st.Vertices {
		t.Fatalf("integrity of the recovered session: %d %+v (%v), want 200 covering %d events", resp.StatusCode, integ, err, st.Vertices)
	}
	// Everything acknowledged must have survived; a partially logged
	// in-flight batch may legitimately push n past ackedN.
	if n < ackedN || n > len(events) {
		t.Fatalf("recovered %d vertices, acked %d of %d", n, ackedN, len(events))
	}

	// Every query over the recovered prefix must match the BFS oracle.
	var pairs []client.ReachPair
	for i := 0; i < n; i++ {
		for _, j := range []int{0, i / 2, i, n - 1 - i%n} {
			pairs = append(pairs, client.ReachPair{From: int32(events[i].V), To: int32(events[j].V)})
		}
	}
	assertReach(t, base2, "crash", r, pairs)
}

// TestWfserveGracefulShutdown exercises the SIGTERM path: a durable
// server is asked to shut down while it holds acknowledged events; it
// must exit zero (drain, flush, close the WALs) and a second server on
// the same directory must restore every acknowledged vertex.
func TestWfserveGracefulShutdown(t *testing.T) {
	bin := buildOnce(t)
	dataDir := t.TempDir()
	base, cmd := startServerCmd(t, bin, "-data", dataDir)

	body, _ := json.Marshal(map[string]string{"name": "calm", "builtin": "RunningExample"})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	g := wfreach.MustCompile(wfreach.RunningExample())
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	b, _ := json.Marshal(map[string]any{"events": wire})
	resp, err = http.Post(base+"/v1/sessions/calm/events", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit within 15s of SIGTERM")
	}

	// Everything acknowledged survives the planned restart.
	base2, _ := startServerCmd(t, bin, "-data", dataDir)
	resp, err = http.Get(base2 + "/v1/sessions/calm")
	if err != nil {
		t.Fatal(err)
	}
	var st client.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Vertices != int64(len(events)) {
		t.Fatalf("recovered %d vertices, want %d", st.Vertices, len(events))
	}
	var pairs []client.ReachPair
	for i := 0; i < 40; i++ {
		pairs = append(pairs, client.ReachPair{From: int32(events[i%len(events)].V), To: int32(events[(i*17)%len(events)].V)})
	}
	assertReach(t, base2, "calm", r, pairs)
}

// TestWfserveFollowerPromote is the end-to-end failover drill: a
// durable primary and a durable follower (-follow) as separate
// processes, writes streamed to the primary and replicated to the
// follower, reads answered by the follower; then the primary is
// SIGKILLed, the follower is promoted via `wfserve -promote`, ingest
// continues against the promoted server, and a restart of it recovers
// the full stream — its WAL is a valid continuation.
func TestWfserveFollowerPromote(t *testing.T) {
	bin := buildOnce(t)
	pdir, fdir := t.TempDir(), t.TempDir()
	pbase, pcmd := startServerCmd(t, bin, "-data", pdir)
	fbase, _ := startServerCmd(t, bin, "-data", fdir, "-follow", pbase, "-follow-poll", "100ms")

	ctx := context.Background()
	pc := client.New(pbase)
	fc := client.New(fbase)
	if _, err := pc.CreateSession(ctx, client.CreateSessionRequest{Name: "fo", Builtin: "RunningExample"}); err != nil {
		t.Fatal(err)
	}
	g := wfreach.MustCompile(wfreach.RunningExample())
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 400, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	half := len(wire) / 2
	if _, err := pc.IngestFrames(ctx, "fo", wire[:half]); err != nil {
		t.Fatal(err)
	}

	// The follower catches up (status-API driven) and answers reads.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := fc.ReplicationStatus(ctx)
		if err == nil && st.Role == "follower" && len(st.Sessions) == 1 && st.Sessions[0].WALSeq == int64(half) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v, %v", st, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	for i := 0; i < half; i += 9 {
		v, w := events[i].V, events[(i*7)%half].V
		got, err := fc.Reach(ctx, "fo", int32(v), int32(w))
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Reaches(v, w); got != want {
			t.Fatalf("follower reach(%d,%d) = %v, oracle %v", v, w, got, want)
		}
	}
	// A write against the follower redirects to the primary.
	if _, err := fc.IngestFrames(ctx, "fo", wire[half:half+1]); err != nil {
		t.Fatalf("redirected write: %v", err)
	}
	half++
	// Let replication drain before the kill: an event the primary
	// acknowledged but never shipped is legitimately lost on failover,
	// and this test wants the lossless path.
	for {
		st, err := fc.ReplicationStatus(ctx)
		if err == nil && len(st.Sessions) == 1 && st.Sessions[0].WALSeq == int64(half) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("redirected write never replicated")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Failover: SIGKILL the primary, promote the follower through the
	// admin flag, and keep ingesting against the promoted server.
	_ = pcmd.Process.Kill()
	_ = pcmd.Wait()
	if out, err := exec.Command(bin, "-promote", fbase).CombinedOutput(); err != nil {
		t.Fatalf("wfserve -promote: %v\n%s", err, out)
	}
	if _, err := fc.IngestFrames(ctx, "fo", wire[half:]); err != nil {
		t.Fatalf("ingest after promote: %v", err)
	}
	st, err := fc.Session(ctx, "fo")
	if err != nil || st.Vertices != int64(len(events)) {
		t.Fatalf("promoted session: %+v, %v", st, err)
	}
	for i := 0; i < len(events); i += 9 {
		v, w := events[i].V, events[(i*11)%len(events)].V
		got, err := fc.Reach(ctx, "fo", int32(v), int32(w))
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Reaches(v, w); got != want {
			t.Fatalf("promoted reach(%d,%d) = %v, oracle %v", v, w, got, want)
		}
	}

	// The promoted server's WAL restores cleanly in a fresh process.
	rbase, _ := startServerCmd(t, bin, "-data", fdir)
	rc := client.New(rbase)
	st, err = rc.Session(ctx, "fo")
	if err != nil || st.Vertices != int64(len(events)) {
		t.Fatalf("restore of promoted data: %+v, %v", st, err)
	}
}
