package loadmatrix

import (
	"context"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Matrix {
	t.Helper()
	m, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunTinyMatrix drives a small real matrix end to end on the
// single topology: both workload kinds, both transports, verification
// on, generous gates — everything must pass and the report must carry
// real measurements. The runs are sized so that ingest outlasts the
// readers' start-up: a stream that is over in a few milliseconds can
// end before any reader got a query in, and a gated latency with no
// samples is a violation.
func TestRunTinyMatrix(t *testing.T) {
	m := mustParse(t, `{
	  "name": "tiny",
	  "defaults": {"batch": 64, "verify": true, "seed": 5},
	  "workloads": [
	    {"name": "bio", "kind": "grammar", "spec": "BioAID", "size": 3000},
	    {"name": "agent", "kind": "agent", "size": 2000, "depth": 4}
	  ],
	  "topologies": ["single"],
	  "transports": ["binary", "json"],
	  "sessions": [2],
	  "mixes": [{"name": "rw", "readers": 2, "reach_batch": 4, "lineage_every": 8}],
	  "slo": {"p99_ingest_us": 60000000, "p99_query_us": 60000000, "min_events_per_sec": 1}
	}`)
	rep, err := Run(context.Background(), m, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 4 || rep.Passed != 4 || rep.Failed != 0 || !rep.Pass {
		t.Fatalf("report %+v", rep)
	}
	for _, sc := range rep.Scenarios {
		if sc.Metrics.IngestEvents == 0 || sc.Metrics.EventsPerSec <= 0 {
			t.Fatalf("%s measured no ingest: %+v", sc.Name, sc.Metrics)
		}
		if sc.Metrics.IngestP99US <= 0 {
			t.Fatalf("%s measured no ingest latency: %+v", sc.Name, sc.Metrics)
		}
		if !sc.Metrics.VerifyChecked || sc.Metrics.VerifyMismatches != 0 {
			t.Fatalf("%s verification: %+v", sc.Name, sc.Metrics)
		}
		if sc.Metrics.HasReplica {
			t.Fatalf("%s claims a replica on the single topology", sc.Name)
		}
		// Server-side truth must agree with the client-side count: the
		// summed per-session ingest deltas equal the events we sent.
		if sc.ServerMetrics == nil {
			t.Fatalf("%s carried no server metrics", sc.Name)
		}
		var serverIngest float64
		for k, v := range sc.ServerMetrics {
			if strings.HasPrefix(k, "wf_ingest_events_total{") {
				serverIngest += v
			}
			if strings.Contains(k, `quantile="`) {
				t.Fatalf("%s delta kept non-additive series %s", sc.Name, k)
			}
		}
		if serverIngest != float64(sc.Metrics.IngestEvents) {
			t.Fatalf("%s server counted %.0f ingested events, client %d",
				sc.Name, serverIngest, sc.Metrics.IngestEvents)
		}
		if sc.ServerMetrics["wf_http_request_seconds_count"] <= 0 {
			t.Fatalf("%s server metrics missing request timings: %v", sc.Name, sc.ServerMetrics)
		}
	}
}

// TestRunReplicaAndClusterTopologies proves the two distributed
// in-process topologies carry a scenario: the replica scenario must
// report lag samples and a catch-up, the cluster scenario must spread
// sessions and still verify.
func TestRunReplicaAndClusterTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed topologies are slower; skipped in -short")
	}
	m := mustParse(t, `{
	  "name": "dist",
	  "defaults": {"batch": 32, "verify": true, "seed": 9},
	  "workloads": [{"name": "agent", "kind": "agent", "size": 400, "depth": 4}],
	  "topologies": ["replica", "cluster3"],
	  "transports": ["binary"],
	  "sessions": [3],
	  "mixes": [{"name": "r", "readers": 1, "reach_batch": 4}],
	  "slo": {"min_events_per_sec": 1},
	  "overrides": [{"topology": "replica", "slo": {"max_replica_lag_events": 10000000}}]
	}`)
	rep, err := Run(context.Background(), m, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 || !rep.Pass {
		t.Fatalf("report %+v", rep)
	}
	for _, sc := range rep.Scenarios {
		switch sc.Topology {
		case "replica":
			if !sc.Metrics.HasReplica || sc.Metrics.ReplicaLagSamples == 0 {
				t.Fatalf("replica scenario sampled no lag: %+v", sc.Metrics)
			}
			if sc.ServerMetrics["wf_wal_appends_total"] <= 0 {
				t.Fatalf("replica scenario has no WAL appends in server metrics: %v", sc.ServerMetrics)
			}
		case "cluster3":
			if sc.Metrics.HasReplica {
				t.Fatalf("cluster scenario claims a replica: %+v", sc.Metrics)
			}
			if sc.Metrics.IngestEvents == 0 || sc.Metrics.VerifyMismatches != 0 {
				t.Fatalf("cluster scenario: %+v", sc.Metrics)
			}
		}
	}
}

// TestRunFailingSLOAggregates pins the aggregation satellite: every
// scenario violating its gates must fail the report as a whole (the
// CLI turns Pass=false into a non-zero exit).
func TestRunFailingSLOAggregates(t *testing.T) {
	m := mustParse(t, `{
	  "name": "failing",
	  "workloads": [{"name": "bio", "kind": "grammar", "spec": "Path", "size": 200}],
	  "topologies": ["single"],
	  "transports": ["binary"],
	  "sessions": [1],
	  "mixes": [{"name": "w", "readers": 0}],
	  "slo": {"min_events_per_sec": 1000000000000}
	}`)
	rep, err := Run(context.Background(), m, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Failed != 1 || rep.Passed != 0 {
		t.Fatalf("report %+v", rep)
	}
	v := rep.Scenarios[0].Violations
	if len(v) != 1 || v[0].Metric != "min_events_per_sec" || !strings.Contains(v[0].Reason, "below the floor") {
		t.Fatalf("violations %+v", v)
	}
}

// TestSoakMini runs a miniature soak: a few dozen live sessions held
// for two seconds with rolling replacements, health samples, and a
// verified read stream.
func TestSoakMini(t *testing.T) {
	m := mustParse(t, `{
	  "name": "soak-mini",
	  "defaults": {"batch": 32, "verify": true, "seed": 13},
	  "workloads": [{"name": "agent", "kind": "agent", "size": 250, "depth": 3}],
	  "slo": {"min_events_per_sec": 1},
	  "soak": {"workload": "agent", "sessions": 40, "duration_sec": 2, "sample_every_sec": 1, "workers": 8, "readers": 2}
	}`)
	rep, err := Run(context.Background(), m, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Soak
	if s == nil || !s.Pass {
		t.Fatalf("soak result %+v", s)
	}
	if s.LiveSessions < 40 {
		t.Fatalf("held %d live sessions, wanted at least 40", s.LiveSessions)
	}
	if s.IngestEvents == 0 || s.EventsPerSec <= 0 {
		t.Fatalf("soak ingested nothing: %+v", s)
	}
	if len(s.Samples) < 2 {
		t.Fatalf("soak took %d samples, want at least 2", len(s.Samples))
	}
	last := s.Samples[len(s.Samples)-1]
	if last.Goroutines == 0 || last.HeapBytes == 0 {
		t.Fatalf("final sample missing runtime health: %+v", last)
	}
	if s.VerifyMismatches != 0 {
		t.Fatalf("soak verification failed: %+v", s)
	}
}
