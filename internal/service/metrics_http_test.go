package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/gen"
)

// parseProm is a strict in-test reader of the Prometheus text format:
// families must be announced by HELP and TYPE before their samples,
// and every sample line must end in a parseable float.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	announced := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			announced[fields[0]] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			cut := strings.LastIndexByte(line, ' ')
			if cut <= 0 {
				t.Fatalf("line %d: sample without value: %q", ln+1, line)
			}
			v, err := strconv.ParseFloat(line[cut+1:], 64)
			if err != nil {
				t.Fatalf("line %d: bad value: %q: %v", ln+1, line, err)
			}
			base := line[:cut]
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
			if !announced[base] {
				t.Fatalf("line %d: sample %q before its TYPE line", ln+1, line)
			}
			out[line[:cut]] = v
		}
	}
	return out
}

// TestMetricsEndpointUnderConcurrentIngest scrapes /v1/metrics in a
// tight loop while a writer streams events into a session: every
// scrape must be well-framed, ingest counters must be monotonic, and
// ingest must keep making progress between scrapes (a scrape holds no
// lock an event append waits on). Run under -race in CI.
func TestMetricsEndpointUnderConcurrentIngest(t *testing.T) {
	srv := newTestServer(t)
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "m", Builtin: "RunningExample"}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	g := compileBuiltin(t, "RunningExample")
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]api.Event, len(events))
	for i, ev := range events {
		wire[i] = api.FromRun(ev)
	}

	// Single writer (sessions are single-writer); errors come back on
	// the channel because t.Fatal must not fire off the test goroutine.
	writerDone := make(chan error, 1)
	go func() {
		const batch = 64
		for lo := 0; lo < len(wire); lo += batch {
			hi := min(lo+batch, len(wire))
			b, err := json.Marshal(api.EventsRequest{Events: wire[lo:hi]})
			if err != nil {
				writerDone <- err
				return
			}
			resp, err := http.Post(srv.URL+"/v1/sessions/m/events", "application/json", bytes.NewReader(b))
			if err != nil {
				writerDone <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	scrapeOnce := func() map[string]float64 {
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("scrape content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseProm(t, string(raw))
	}

	const key = `wf_ingest_events_total{session="m"}`
	var last float64
	scrapes := 0
	for done := false; !done; {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			done = true
		default:
			got := scrapeOnce()
			if got[key] < last {
				t.Fatalf("ingest counter went backwards: %g after %g", got[key], last)
			}
			last = got[key]
			scrapes++
		}
	}

	final := scrapeOnce()
	if final[key] != float64(len(wire)) {
		t.Fatalf("server counted %g ingested events, sent %d", final[key], len(wire))
	}
	if scrapes == 0 {
		t.Fatal("never scraped concurrently with ingest")
	}
	// The families the dashboards and CI drills key on must exist on
	// every node from the first scrape, whatever the topology.
	for _, name := range []string{
		"wf_sessions",
		"wf_wal_appends_total",
		"wf_wal_commit_seconds_count",
		"wf_snapshot_writes_total",
		"wf_replica_lag_events",
		"wf_cluster_moves_total",
		"wf_cluster_rejections_total",
		"wf_chain_verify_frames_total",
	} {
		found := false
		for k := range final {
			if k == name || strings.HasPrefix(k, name+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scrape missing family %s", name)
		}
	}
	if final["wf_sessions"] != 1 {
		t.Fatalf("wf_sessions = %g, want 1", final["wf_sessions"])
	}
}
