//go:build !race

package client_test

import (
	"context"
	"net/http"
	"runtime"
	"testing"

	"wfreach/client"
	"wfreach/internal/api"
)

// TestReachBatchClientAllocatesPerRequest: outside net/http, ReachBatch
// allocates the request buffer, the response body and the answers — one
// object each whatever the batch size, so a 4,096-pair call costs the
// objects a 64-pair call costs.
func TestReachBatchClientAllocatesPerRequest(t *testing.T) {
	ctx := context.Background()
	var counts [2]float64
	sizes := [2]int{64, api.MaxReachPairs}
	for k, n := range sizes {
		pairs := make([]client.ReachPair, n)
		bits := api.ReachBits(nil).Reset(n)
		for i := range pairs {
			pairs[i] = client.ReachPair{From: int32(i * 1000), To: int32(-i)}
			if i%3 == 0 {
				bits.Set(i)
			}
		}
		c := client.New("http://canned", client.WithRetry(0, 0),
			client.WithHTTPClient(&http.Client{Transport: cannedReach{api.AppendReachResponse(nil, n, bits, nil)}}))
		ask := func() {
			answers, err := c.ReachBatch(ctx, "s", pairs)
			if err != nil || len(answers) != n || !answers[0].Reachable || answers[1].Reachable || answers[n-1].To != int32(1-n) {
				t.Fatalf("%d pairs: %v, %d answers", n, err, len(answers))
			}
		}
		ask()
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			ask()
		}
		runtime.ReadMemStats(&after)
		counts[k] = float64(after.Mallocs-before.Mallocs) / calls
	}
	t.Logf("allocations per call: %.1f for %d pairs, %.1f for %d", counts[0], sizes[0], counts[1], sizes[1])
	if counts[1] > counts[0]+1 {
		t.Errorf("a %d-pair ReachBatch allocates %.1f objects, a %d-pair one %.1f: want the same, a pair costs none", sizes[1], counts[1], sizes[0], counts[0])
	}
}
