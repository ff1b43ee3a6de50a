package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"

	"wfreach"
	"wfreach/client"
	"wfreach/internal/service"
)

// Example streams a generated workflow execution into a session over
// the binary frame format and answers a batch of provenance queries,
// verifying every answer against the BFS ground-truth oracle.
func Example() {
	// An in-process server over a throwaway data directory; point New
	// at a real wfserve in production.
	dir, err := os.MkdirTemp("", "wfserve-data")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir})
	if err != nil {
		panic(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(service.NewHandler(reg))
	defer srv.Close()

	ctx := context.Background()
	c := client.New(srv.URL)

	if _, err := c.CreateSession(ctx, client.CreateSessionRequest{
		Name: "demo", Builtin: "RunningExample",
	}); err != nil {
		panic(err)
	}

	// Generate a deterministic run (the oracle) and its execution.
	g := wfreach.MustCompile(wfreach.RunningExample())
	run := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 300, Seed: 1})
	events, err := run.Execution(nil)
	if err != nil {
		panic(err)
	}

	// Stream the events; batches flush automatically.
	stream := c.Stream(ctx, "demo", client.StreamOptions{BatchSize: 64})
	for _, ev := range events {
		if err := stream.Send(client.FromRun(ev)); err != nil {
			panic(err)
		}
	}
	if err := stream.Close(); err != nil {
		panic(err)
	}
	fmt.Println("every event acknowledged:", stream.Applied() == int64(len(events)))

	// Ask 64 reachability questions in one roundtrip.
	var pairs []client.ReachPair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, client.ReachPair{
			From: int32(events[(i*5)%len(events)].V),
			To:   int32(events[(i*17)%len(events)].V),
		})
	}
	answers, err := c.ReachBatch(ctx, "demo", pairs)
	if err != nil {
		panic(err)
	}
	agree := true
	for _, ans := range answers {
		if ans.Reachable != run.Reaches(wfreach.VertexID(ans.From), wfreach.VertexID(ans.To)) {
			agree = false
		}
	}
	fmt.Println("answers agree with the BFS oracle:", agree)
	// Output:
	// every event acknowledged: true
	// answers agree with the BFS oracle: true
}
