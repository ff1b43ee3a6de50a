package loadmatrix

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/client"
)

// wrongAnswers is a real read driver that negates one reach answer in
// 64 — a labeler bug as the harness would see it.
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

// flagScenario is a flag-mode scenario the way wfload builds one.
func flagScenario(readers int) Scenario {
	return Scenario{
		Name:     "BioAID/single/binary/s2/flags",
		Workload: Workload{Name: "BioAID", Kind: "grammar", Spec: "BioAID", Size: 3000},
		Topology: "single", Transport: "binary", Sessions: 2,
		Mix:   Mix{Name: "flags", Readers: readers, ReachBatch: 64},
		Batch: 64, Verify: true, Seed: 3,
	}
}

// TestEveryEntryPointCatchesAWrongAnswer plants wrong answers under
// each way the harness reads — a matrix scenario, a soak, resume, and
// the flag mode wfload is flag parsing over — and requires each to
// count them and fail its report, which is what makes wfload exit
// non-zero.
func TestEveryEntryPointCatchesAWrongAnswer(t *testing.T) {
	plant := RunOptions{wrapRead: func(d driver) driver { return &wrongAnswers{driver: d} }}
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T, opts RunOptions) (*Report, int64)
	}{
		{"matrix", func(t *testing.T, opts RunOptions) (*Report, int64) {
			m := mustParse(t, `{
			  "name": "planted",
			  "defaults": {"batch": 64, "verify": true, "seed": 3},
			  "workloads": [{"name": "bio", "kind": "grammar", "spec": "BioAID", "size": 3000}],
			  "topologies": ["single"], "transports": ["binary"], "sessions": [2],
			  "mixes": [{"name": "r", "readers": 2, "reach_batch": 64}]
			}`)
			rep, err := Run(ctx, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rep, rep.Scenarios[0].Metrics.VerifyMismatches
		}},
		{"soak", func(t *testing.T, opts RunOptions) (*Report, int64) {
			m := mustParse(t, `{
			  "name": "planted-soak",
			  "defaults": {"batch": 32, "verify": true, "seed": 3},
			  "workloads": [{"name": "agent", "kind": "agent", "size": 250, "depth": 3}],
			  "soak": {"workload": "agent", "sessions": 8, "duration_sec": 1, "sample_every_sec": 1, "workers": 2, "readers": 2}
			}`)
			rep, err := Run(ctx, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rep, rep.Soak.VerifyMismatches
		}},
		{"resume", func(t *testing.T, opts RunOptions) (*Report, int64) {
			ep, stop, err := launch("single", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			if _, err := RunLoad(ctx, flagScenario(0), Load{Endpoints: ep, Prefix: "r"}, RunOptions{}); err != nil {
				t.Fatal(err)
			}
			rep, err := RunLoad(ctx, flagScenario(1), Load{Endpoints: ep, Prefix: "r", Resume: true, Queries: 640}, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rep, rep.Scenarios[0].Metrics.VerifyMismatches
		}},
		{"flags", func(t *testing.T, opts RunOptions) (*Report, int64) {
			ep, stop, err := launch("single", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			rep, err := RunLoad(ctx, flagScenario(2), Load{Endpoints: ep, Prefix: "f"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rep, rep.Scenarios[0].Metrics.VerifyMismatches
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := plant
			opts.Dir = t.TempDir()
			rep, mismatches := tc.run(t, opts)
			if mismatches < 1 {
				t.Fatalf("no planted wrong answer counted: %+v", rep)
			}
			if rep.Pass || rep.Err() == nil {
				t.Fatalf("report passed with %d wrong answers: %+v", mismatches, rep)
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
	ep, stop, err := launch("single", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cl, err := client.NewCluster(client.ClusterMap{Version: 1,
		Nodes: []client.ClusterNode{{Name: "n0", URL: ep.Addr}}}, client.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	d := &failingIngest{Cluster: cl}

	errc := make(chan error, 1)
	go func() {
		_, err := drive(context.Background(), flagScenario(1), &topo{write: d, read: d},
			Load{Prefix: "m", Move: "m-0=n0"})
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
