package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/client"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
)

func benchEvents(b *testing.B, size int) (*spec.Grammar, []run.Event) {
	b.Helper()
	s, _ := service.Builtin("BioAID")
	g, err := spec.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g, events
}

// benchRegistry is a registry over a fresh directory with snapshots
// off (and fsync, as by default, off), so what is measured is the
// session and its log, not the disk. The caller closes it.
func benchRegistry(b *testing.B) *service.Registry {
	b.Helper()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

func ingestAll(b *testing.B, s *service.Session, events []run.Event, batch int) {
	b.Helper()
	for i := 0; i < len(events); i += batch {
		end := min(i+batch, len(events))
		if _, err := s.Append(events[i:end]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionIngest measures streaming-ingest throughput through
// a session (labeling + encoding + store publication), reporting
// events/sec — the service hot path future scaling PRs optimize.
func BenchmarkSessionIngest(b *testing.B) {
	g, events := benchEvents(b, 8192)
	cfg := service.Config{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := benchRegistry(b)
		s, err := reg.Create("b", g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ingestAll(b, s, events, 256)
		reg.Close()
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSessionIngestConcurrentReaders is the same ingest with
// query goroutines hammering the read side, measuring how much
// concurrent readers cost the writer.
func BenchmarkSessionIngestConcurrentReaders(b *testing.B) {
	const readers = 4
	g, events := benchEvents(b, 8192)
	cfg := service.Config{}
	var queries atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := benchRegistry(b)
		s, err := reg.Create("b", g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for ri := 0; ri < readers; ri++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := s.Vertices()
					if n < 2 {
						continue
					}
					v := events[rng.Int63n(n)].V
					w := events[rng.Int63n(n)].V
					if _, err := s.Reach(v, w); err == nil {
						queries.Add(1)
					}
				}
			}(int64(ri))
		}
		ingestAll(b, s, events, 256)
		close(stop)
		wg.Wait()
		reg.Close()
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(queries.Load())/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkSessionQuery measures read-side reachability throughput on
// a fully ingested session, across parallel readers.
func BenchmarkSessionQuery(b *testing.B) {
	g, events := benchEvents(b, 8192)
	reg := benchRegistry(b)
	b.Cleanup(func() { reg.Close() })
	s, err := reg.Create("b", g, service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ingestAll(b, s, events, 256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(7))
		for pb.Next() {
			v := events[rng.Intn(len(events))].V
			w := events[rng.Intn(len(events))].V
			if _, err := s.Reach(v, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkSessionLineage measures the lock-free full-closure scan on
// a fully ingested session.
func BenchmarkSessionLineage(b *testing.B) {
	g, events := benchEvents(b, 4096)
	reg := benchRegistry(b)
	b.Cleanup(func() { reg.Close() })
	s, err := reg.Create("b", g, service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ingestAll(b, s, events, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.LineagePage(events[i%len(events)].V, graph.None, math.MaxInt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lineages/sec")
}

// BenchmarkDurableConcurrentSessions measures WAL group commit: many
// sessions ingest concurrently on one durable registry, so their
// per-batch flushes coalesce through the cross-session committer.
// events/sec is the aggregate across sessions.
func BenchmarkDurableConcurrentSessions(b *testing.B) {
	const sessions = 4
	g, events := benchEvents(b, 4096)
	cfg := service.Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := benchRegistry(b)
		ss := make([]*service.Session, sessions)
		for si := range ss {
			var err error
			if ss[si], err = reg.Create(string(rune('a'+si)), g, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func(s *service.Session) {
				defer wg.Done()
				for lo := 0; lo < len(events); lo += 256 {
					hi := min(lo+256, len(events))
					if _, err := s.Append(events[lo:hi]); err != nil {
						b.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		b.StopTimer()
		if err := reg.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(len(events)*sessions*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// --- HTTP wire benchmarks: what the /v1 redesign buys on the wire.
// They run through a real HTTP stack (httptest server + the Go client
// SDK), so the numbers include framing, checksums and roundtrips.

func benchHTTP(b *testing.B) (*service.Registry, *client.Client, string, func() string) {
	b.Helper()
	reg := benchRegistry(b)
	b.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(service.NewHandler(reg))
	b.Cleanup(srv.Close)
	c := client.New(srv.URL, client.WithRetry(0, 0))
	n := 0
	nextSession := func() string {
		n++
		name := fmt.Sprintf("b%d", n)
		if _, err := c.CreateSession(context.Background(), client.CreateSessionRequest{
			Name: name, Builtin: "BioAID",
		}); err != nil {
			b.Fatal(err)
		}
		return name
	}
	return reg, c, srv.URL, nextSession
}

func wireEvents(b *testing.B, events []run.Event) []client.Event {
	b.Helper()
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = api.FromRun(ev)
	}
	return wire
}

// BenchmarkHTTPIngestJSON streams 256-event batches into a durable
// session over the JSON events route — the pre-redesign wire path:
// decode JSON, then re-encode every event into its WAL frame
// server-side.
func BenchmarkHTTPIngestJSON(b *testing.B) {
	_, events := benchEvents(b, 8192)
	_, _, url, nextSession := benchHTTP(b)
	wire := wireEvents(b, events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := nextSession()
		for lo := 0; lo < len(wire); lo += 256 {
			hi := min(lo+256, len(wire))
			if err := postEvents(url, name, wire[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(wire)*b.N), "ns/event")
	b.ReportMetric(float64(len(wire)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkHTTPIngestBinary streams the same batches into a durable
// session over the binary frame route: one length-prefixed CRC-framed
// record per event, byte-identical to the WAL frame, teed to the log
// without re-encoding.
func BenchmarkHTTPIngestBinary(b *testing.B) {
	_, events := benchEvents(b, 8192)
	_, c, _, nextSession := benchHTTP(b)
	wire := wireEvents(b, events)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := nextSession()
		for lo := 0; lo < len(wire); lo += 256 {
			hi := min(lo+256, len(wire))
			if _, err := c.IngestFrames(ctx, name, wire[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(wire)*b.N), "ns/event")
	b.ReportMetric(float64(len(wire)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkHTTPIngestBinaryScraped is the identical saturated binary
// stream with a concurrent scraper hitting GET /v1/metrics once per
// second — still 5–15× a production Prometheus cadence. The
// Binary/BinaryScraped pair prices observability on the hot ingest
// path (acceptance budget: ≤1%). Note the baseline already carries
// the always-on instrumentation (hot-path atomics); this pair
// isolates pure scrape concurrency. It also reports ms/scrape (wall
// time of one full GET /v1/metrics round-trip under saturated
// ingest), from which overhead at any cadence follows directly:
// overhead = scrape_ms × scrapes_per_sec / 1000.
func BenchmarkHTTPIngestBinaryScraped(b *testing.B) {
	_, events := benchEvents(b, 8192)
	_, c, _, nextSession := benchHTTP(b)
	wire := wireEvents(b, events)
	ctx := context.Background()
	stop := make(chan struct{})
	var scrapes atomic.Int64
	var scrapeNS atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			start := time.Now()
			if _, err := c.Metrics(ctx); err == nil {
				scrapes.Add(1)
				scrapeNS.Add(time.Since(start).Nanoseconds())
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := nextSession()
		for lo := 0; lo < len(wire); lo += 256 {
			hi := min(lo+256, len(wire))
			if _, err := c.IngestFrames(ctx, name, wire[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(wire)*b.N), "ns/event")
	b.ReportMetric(float64(len(wire)*b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(scrapes.Load())/b.Elapsed().Seconds(), "scrapes/sec")
	if n := scrapes.Load(); n > 0 {
		b.ReportMetric(float64(scrapeNS.Load())/float64(n)/1e6, "ms/scrape")
	}
}

// BenchmarkHTTPIngestBinaryNoChain is the identical stream with the
// WAL hash chain switched off: the Binary/NoChain pair prices tamper
// evidence on the hot ingest path (acceptance budget: ≤5%). The chain
// is one batched SHA-256 pass per group-commit flush, so the delta
// should be hashing throughput, not extra synchronization.
func BenchmarkHTTPIngestBinaryNoChain(b *testing.B) {
	_, events := benchEvents(b, 8192)
	reg, c, _, nextSession := benchHTTP(b)
	wire := wireEvents(b, events)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := nextSession()
		if s, ok := reg.Get(name); ok {
			service.DisableChain(s)
		}
		for lo := 0; lo < len(wire); lo += 256 {
			hi := min(lo+256, len(wire))
			if _, err := c.IngestFrames(ctx, name, wire[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(wire)*b.N), "ns/event")
	b.ReportMetric(float64(len(wire)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkHTTPReachSingle answers one reachability pair per
// roundtrip — ns/op is the per-pair cost the batch endpoint amortizes.
func BenchmarkHTTPReachSingle(b *testing.B) {
	_, events := benchEvents(b, 8192)
	_, c, _, nextSession := benchHTTP(b)
	name := nextSession()
	ctx := context.Background()
	if _, err := c.IngestFrames(ctx, name, wireEvents(b, events)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int32(events[rng.Intn(len(events))].V)
		w := int32(events[rng.Intn(len(events))].V)
		if _, err := c.Reach(ctx, name, v, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
}

// BenchmarkHTTPReachBatch64 answers 64 pairs per roundtrip over the
// /v1 batch endpoint, in both of its forms: binary is the SDK's
// ReachBatch, json a raw POST of the debug form against the same
// session. ns/pair is directly comparable to BenchmarkHTTPReachSingle.
func BenchmarkHTTPReachBatch64(b *testing.B) {
	const batch = 64
	_, events := benchEvents(b, 8192)
	reg, c, _, nextSession := benchHTTP(b)
	name := nextSession()
	ctx := context.Background()
	if _, err := c.IngestFrames(ctx, name, wireEvents(b, events)); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ask func([]client.ReachPair) error) {
		rng := rand.New(rand.NewSource(7))
		pairs := make([]client.ReachPair, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for pi := range pairs {
				pairs[pi] = client.ReachPair{
					From: int32(events[rng.Intn(len(events))].V),
					To:   int32(events[rng.Intn(len(events))].V),
				}
			}
			if err := ask(pairs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(batch*b.N), "ns/pair")
	}
	b.Run("binary", func(b *testing.B) {
		run(b, func(pairs []client.ReachPair) error {
			_, err := c.ReachBatch(ctx, name, pairs)
			return err
		})
	})
	b.Run("json", func(b *testing.B) {
		srv := httptest.NewServer(service.NewHandler(reg))
		defer srv.Close()
		url := srv.URL + "/v1/sessions/" + name + "/reach"
		run(b, func(pairs []client.ReachPair) error {
			body, err := json.Marshal(api.BatchReachRequest{Pairs: pairs})
			if err != nil {
				return err
			}
			resp, err := http.Post(url, api.ContentTypeJSON, bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var out api.BatchReachResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK || len(out.Results) != len(pairs) {
				return fmt.Errorf("status %d, %d answers for %d pairs", resp.StatusCode, len(out.Results), len(pairs))
			}
			return nil
		})
	})
}
