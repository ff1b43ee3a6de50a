package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"wfreach"
	"wfreach/client"
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
// base URL, scraping the printed listen address.
func startServer(t *testing.T, args ...string) string {
	base, _ := startServerCmd(t, buildOnce(t), args...)
	return base
}

// startServerCmd is startServer with a prebuilt binary, also handing
// back the process so tests can kill it abruptly.
func startServerCmd(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(10 * time.Second)
	urlCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				urlCh <- strings.TrimSpace(rest)
				return
			}
		}
	}()
	select {
	case u := <-urlCh:
		return u, cmd
	case <-deadline:
		t.Fatal("server never printed its listen address")
		return "", nil
	}
}

func TestWfserveEndToEnd(t *testing.T) {
	base := startServer(t)

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
	events, r, err := wfreach.GenerateEvents(g, wfreach.GenOptions{TargetSize: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]wfreach.WireEvent, len(events))
	for i, ev := range events {
		wire[i] = wfreach.ToWire(ev)
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

	for i := 0; i < 50; i++ {
		v, w := events[i%len(events)].V, events[(i*13)%len(events)].V
		resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/e2e/reach?from=%d&to=%d", base, v, w))
		if err != nil {
			t.Fatal(err)
		}
		var rr struct {
			Reachable bool `json:"reachable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := r.Graph.Reaches(v, w); rr.Reachable != want {
			t.Fatalf("reach(%d,%d) = %v, oracle %v", v, w, rr.Reachable, want)
		}
	}
}

func TestWfservePrecreatedSession(t *testing.T) {
	base := startServer(t, "-session", "pre=BioAID")
	resp, err := http.Get(base + "/v1/sessions/pre")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st wfreach.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "pre" || st.Class != "linear-recursive" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWfserveBadSessionFlag(t *testing.T) {
	bin := buildOnce(t)
	for _, args := range [][]string{
		{"-session", "nonsense"},
		{"-session", "x=NoSuchSpec"},
	} {
		if out, err := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput(); err == nil {
			t.Fatalf("args %v should fail:\n%s", args, out)
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
	events, r, err := wfreach.GenerateEvents(g, wfreach.GenOptions{TargetSize: 600, Seed: 4})
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
			wire := make([]wfreach.WireEvent, 0, hi-lo)
			for _, ev := range events[lo:hi] {
				wire = append(wire, wfreach.ToWire(ev))
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
	var st wfreach.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Durable {
		t.Fatal("recovered session not marked durable")
	}
	n := int(st.Vertices)
	// Everything acknowledged must have survived; a partially logged
	// in-flight batch may legitimately push n past ackedN.
	if n < ackedN || n > len(events) {
		t.Fatalf("recovered %d vertices, acked %d of %d", n, ackedN, len(events))
	}

	// Every query over the recovered prefix must match the BFS oracle.
	for i := 0; i < n; i++ {
		for _, j := range []int{0, i / 2, i, n - 1 - i%n} {
			v, w := events[i].V, events[j].V
			resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/crash/reach?from=%d&to=%d", base2, v, w))
			if err != nil {
				t.Fatal(err)
			}
			var rr struct {
				Reachable bool `json:"reachable"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := r.Reaches(v, w); rr.Reachable != want {
				t.Fatalf("after recovery reach(%d,%d) = %v, oracle %v", v, w, rr.Reachable, want)
			}
		}
	}
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
	events, r, err := wfreach.GenerateEvents(g, wfreach.GenOptions{TargetSize: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]wfreach.WireEvent, len(events))
	for i, ev := range events {
		wire[i] = wfreach.ToWire(ev)
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
	var st wfreach.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Vertices != int64(len(events)) {
		t.Fatalf("recovered %d vertices, want %d", st.Vertices, len(events))
	}
	for i := 0; i < 40; i++ {
		v, w := events[i%len(events)].V, events[(i*17)%len(events)].V
		resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/calm/reach?from=%d&to=%d", base2, v, w))
		if err != nil {
			t.Fatal(err)
		}
		var rr struct {
			Reachable bool `json:"reachable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := r.Reaches(v, w); rr.Reachable != want {
			t.Fatalf("after restart reach(%d,%d) = %v, oracle %v", v, w, rr.Reachable, want)
		}
	}
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
	events, r, err := wfreach.GenerateEvents(g, wfreach.GenOptions{TargetSize: 400, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = wfreach.ToWire(ev)
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
