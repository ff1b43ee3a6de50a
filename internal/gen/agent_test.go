package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func TestAgentGrammarIsLinearRecursive(t *testing.T) {
	g, err := spec.Compile(wfspecs.Agent())
	if err != nil {
		t.Fatal(err)
	}
	if g.Class() != spec.ClassLinear {
		t.Fatalf("agent grammar class = %v, want linear: labels must stay compact under deep delegation", g.Class())
	}
}

// agentShapes is the option sweep the property tests run over: small
// and large, shallow and deep, calm and bursty.
func agentShapes() []AgentOptions {
	return []AgentOptions{
		{Seed: 1},
		{Seed: 2, TargetSize: 200, MaxDepth: 2},
		{Seed: 3, TargetSize: 3000, MaxDepth: 16, DelegateBias: 0.95},
		{Seed: 4, TargetSize: 1500, MaxFanout: 12, BurstBias: 0.9, RetryBias: 0.7, MaxRetries: 5},
		{Seed: 5, TargetSize: 60, MaxDepth: 1},
		{Seed: 6, TargetSize: 800, MaxDepth: 4, MaxFanout: 2},
	}
}

// TestAgentTraceIsValidExecution asserts the structural invariants of
// every generated trace: each event appears once, every predecessor of
// an event was inserted by an earlier event (executions insert
// vertices after their dependencies), and the event count matches the
// oracle run's size.
func TestAgentTraceIsValidExecution(t *testing.T) {
	for _, opts := range agentShapes() {
		tr, err := GenerateAgentTrace(opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(tr.Events) != tr.Run.Size() {
			t.Fatalf("opts %+v: %d events for a %d-vertex run", opts, len(tr.Events), tr.Run.Size())
		}
		seen := make(map[graph.VertexID]bool, len(tr.Events))
		for i, ev := range tr.Events {
			if seen[ev.V] {
				t.Fatalf("opts %+v: vertex %d inserted twice", opts, ev.V)
			}
			for _, p := range ev.Preds {
				if !seen[p] {
					t.Fatalf("opts %+v: event %d inserts %d before its predecessor %d", opts, i, ev.V, p)
				}
			}
			seen[ev.V] = true
		}
	}
}

// TestAgentTraceRespectsShapeBounds asserts the advertised shape
// control: delegation depth never exceeds MaxDepth, and the recorded
// depth is attainable (≥ 1).
func TestAgentTraceRespectsShapeBounds(t *testing.T) {
	for _, opts := range agentShapes() {
		tr, err := GenerateAgentTrace(opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		want := opts.MaxDepth
		if want == 0 {
			want = 8 // the documented default
		}
		if tr.Depth < 1 || tr.Depth > want {
			t.Fatalf("opts %+v: depth %d outside [1, %d]", opts, tr.Depth, want)
		}
		if tr.Turns < 1 {
			t.Fatalf("opts %+v: %d turns", opts, tr.Turns)
		}
		if tr.ToolCalls < 0 || tr.Bursts < 0 || tr.Retries < 0 {
			t.Fatalf("opts %+v: negative shape counters %+v", opts, tr)
		}
		// The Turns loop makes the target size reachable: traces must
		// land in its neighborhood, not degenerate to a handful of
		// vertices (they may stop short when the depth bound caps
		// growth, but never by an order of magnitude).
		target := opts.TargetSize
		if target == 0 {
			target = 1000
		}
		if size := len(tr.Events); size < target/8 || size > target*2+64 {
			t.Fatalf("opts %+v: trace size %d nowhere near target %d", opts, size, target)
		}
	}
}

// TestAgentTraceDeterministic asserts equal options give equal traces
// — the property the benchmark's agent workloads lean on.
func TestAgentTraceDeterministic(t *testing.T) {
	opts := AgentOptions{Seed: 11, TargetSize: 900, MaxDepth: 6, BurstBias: 0.8}
	a, err := GenerateAgentTrace(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateAgentTrace(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same options generated different event streams")
	}
	if a.Depth != b.Depth || a.ToolCalls != b.ToolCalls || a.Retries != b.Retries {
		t.Fatalf("same options, different shapes: %+v vs %+v", a, b)
	}
}

// TestAgentTraceLabelsMatchOracle replays each generated execution
// through a fresh execution labeler and checks sampled reachability
// answers against BFS ground truth on the run — the end-to-end
// property the whole load harness rests on.
func TestAgentTraceLabelsMatchOracle(t *testing.T) {
	g, err := spec.Compile(wfspecs.Agent())
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range agentShapes() {
		tr, err := GenerateAgentTrace(opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		d, err := core.LabelExecution(g, tr.Events, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatalf("opts %+v: label replay: %v", opts, err)
		}
		rng := rand.New(rand.NewSource(opts.Seed * 7919))
		n := int64(len(tr.Events))
		for q := 0; q < 500; q++ {
			v := tr.Events[rng.Int63n(n)].V
			w := tr.Events[rng.Int63n(n)].V
			if got, want := d.Reach(v, w), tr.Run.Reaches(v, w); got != want {
				t.Fatalf("opts %+v: labels say reach(%d,%d)=%v, BFS oracle says %v", opts, v, w, got, want)
			}
		}
	}
}

// TestAgentTraceBurstsActuallyHappen pins the generator's adversarial
// value: with bursty options the trace must contain real fan-out and
// retries, not degenerate chains.
func TestAgentTraceBurstsActuallyHappen(t *testing.T) {
	tr, err := GenerateAgentTrace(AgentOptions{
		Seed: 21, TargetSize: 2000, MaxFanout: 8, BurstBias: 0.9, RetryBias: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Bursts == 0 || tr.Retries == 0 || tr.ToolCalls < 10 {
		t.Fatalf("bursty options produced a tame trace: %+v", tr)
	}
	if tr.Depth < 2 {
		t.Fatalf("trace never delegated (depth %d)", tr.Depth)
	}
}
