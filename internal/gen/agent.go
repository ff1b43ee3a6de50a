package gen

import (
	"fmt"
	"math/rand"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// AgentOptions steers GenerateAgentTrace. The zero value of every
// field selects a sensible default, so AgentOptions{Seed: n} is a
// valid adversarial workload.
type AgentOptions struct {
	// TargetSize is the desired number of vertices of the final run;
	// generation stops expanding once the estimate reaches it. Zero
	// selects 1000.
	TargetSize int
	// Seed drives all random choices; equal options give equal traces.
	Seed int64
	// MaxDepth bounds the delegation depth (Agent nesting): an agent
	// at MaxDepth always answers directly instead of delegating. Zero
	// selects 8.
	MaxDepth int
	// MaxFanout caps the parallel tool calls of one burst. Zero
	// selects 6.
	MaxFanout int
	// BurstBias is the probability a tool-call fan-out is a burst
	// (2..MaxFanout parallel calls) instead of a single call. Zero
	// selects 0.4.
	BurstBias float64
	// RetryBias is the probability one tool call is retried
	// (2..MaxRetries sequential attempts). Zero selects 0.25.
	RetryBias float64
	// MaxRetries caps the attempts of one retried call. Zero
	// selects 3.
	MaxRetries int
	// DelegateBias is the probability a working agent below MaxDepth
	// delegates to a sub-agent, sustaining the recursion. Zero
	// selects 0.85.
	DelegateBias float64
}

func (o *AgentOptions) fill() {
	if o.TargetSize <= 0 {
		o.TargetSize = 1000
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MaxFanout <= 0 {
		o.MaxFanout = 6
	}
	if o.BurstBias <= 0 {
		o.BurstBias = 0.4
	}
	if o.RetryBias <= 0 {
		o.RetryBias = 0.25
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.DelegateBias <= 0 {
		o.DelegateBias = 0.85
	}
}

// AgentTrace is one generated LLM-agent workflow execution: the event
// stream a load generator replays, the run as ground-truth oracle, and
// the shape the random choices produced.
type AgentTrace struct {
	// Events is the execution in a random topological order (bursts
	// interleave, like concurrent tool calls landing in any order).
	Events []run.Event
	// Run is the completed run, the BFS ground truth for the events.
	Run *run.Run
	// Turns is the conversation length: how many prompt → agent →
	// reply turns the session holds.
	Turns int
	// Depth is the deepest delegation reached (1 = no turn's agent
	// ever delegated); always ≤ MaxDepth.
	Depth int
	// ToolCalls counts the tool-call vertices across all bursts,
	// Bursts the fan-outs wider than one call, and Retries the extra
	// attempts beyond the first across all calls.
	ToolCalls int
	Bursts    int
	Retries   int
}

// GenerateAgentTrace derives a random run of the LLM-agent grammar
// (wfspecs.Agent) under explicit shape control — recursion depth
// bound, bursty parallel tool fan-out, sequential retries — and
// converts it into its execution event stream. It is the adversarial
// workload generator behind the benchmark's agent workloads:
// Generate steers only toward a size, whereas agentic traces need
// their depth and burstiness pinned to be reproducible stress shapes.
//
// Generation expands the deepest open composite first (delegation
// chains complete before the next sibling burst starts, like a real
// agent descending into a sub-task), always terminates (the depth
// bound forces direct answers at MaxDepth, and once the size estimate
// reaches TargetSize every choice is the cheapest terminating one),
// and is deterministic in the options.
func GenerateAgentTrace(opts AgentOptions) (*AgentTrace, error) {
	opts.fill()
	g, err := spec.Compile(wfspecs.Agent())
	if err != nil {
		return nil, fmt.Errorf("gen: compile agent grammar: %w", err)
	}
	s := g.Spec()

	// Resolve the implementation graphs by shape: the Agent and Sub
	// implementations with a composite vertex are "work" and
	// "delegate"; the others answer directly / skip.
	hasComposite := func(id spec.GraphID) bool {
		gg := s.Graph(id).G
		for v := 0; v < gg.NumVertices(); v++ {
			if s.Kind(gg.Name(graph.VertexID(v))).Composite() {
				return true
			}
		}
		return false
	}
	pick := func(name string, composite bool) spec.GraphID {
		for _, id := range s.Implementations(name) {
			if hasComposite(id) == composite {
				return id
			}
		}
		panic("gen: agent grammar lost an implementation of " + name)
	}
	var (
		hTurn = s.Implementations("Turns")[0]
		hAct  = pick("Agent", false)
		hPlan = pick("Agent", true)
		hCall = s.Implementations("Calls")[0]
		hTool = s.Implementations("Tool")[0]
		hSub  = pick("Sub", true)
		hSkip = pick("Sub", false)
	)

	rng := rand.New(rand.NewSource(opts.Seed))
	r := run.New(g)
	// About one vertex in five is a tombstone: the run ends near
	// 1.3× the target.
	r.Grow(opts.TargetSize + opts.TargetSize*3/10)
	tr := &AgentTrace{}

	// depth[v] is the delegation depth of an open composite vertex:
	// the number of Agents on the path from the root to v, inclusive
	// (the Turns loop itself sits above the first agent, at 0).
	depth := map[graph.VertexID]int{}
	for _, u := range r.Open() {
		depth[u] = 0
	}

	// est = live atoms + Σ minimal expansion over open composites; room
	// is what the size budget still allows beyond that floor.
	cost := implCosts(g)
	est := cost[spec.StartGraph]

	maxSteps := opts.TargetSize*4 + 4096
	for steps := 0; !r.Complete(); steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("gen: agent trace exceeded %d steps (target %d)", maxSteps, opts.TargetSize)
		}
		u := r.Open()[len(r.Open())-1] // deepest-first: finish the sub-task before the next burst
		d := depth[u]
		name := r.NameOf(u)
		room := opts.TargetSize - est

		impl, copies := hAct, 1
		switch name {
		case "Turns":
			// The conversation length: spend about a quarter of the
			// size budget on minimal turns and leave the rest for
			// delegation depth and tool bursts to fill, so the final
			// size lands near the target whatever the biases do.
			impl = hTurn
			if base := room / (cost[hTurn] * 4); base > 0 {
				copies += base/2 + rng.Intn(base/2+1)
			}
			tr.Turns = copies
		case "Agent":
			impl = hAct
			if room >= cost[hPlan]-g.MinExpansion("Agent") && rng.Float64() < opts.DelegateBias {
				impl = hPlan
			}
		case "Sub":
			impl = hSkip
			if d < opts.MaxDepth &&
				room >= cost[hSub]-g.MinExpansion("Sub") &&
				rng.Float64() < opts.DelegateBias {
				impl = hSub
			}
		case "Calls":
			impl = hCall
			if rng.Float64() < opts.BurstBias {
				copies += rng.Intn(opts.MaxFanout)
			}
		case "Tool":
			impl = hTool
			if rng.Float64() < opts.RetryBias {
				copies += rng.Intn(opts.MaxRetries)
			}
		default:
			return nil, fmt.Errorf("gen: unexpected open composite %q", name)
		}
		if copies > 1 {
			// A wider burst (or longer retry chain) must fit the room
			// beyond the single-copy floor already accounted for.
			if maxExtra := room / cost[impl]; copies-1 > maxExtra {
				copies = 1 + max(maxExtra, 0)
			}
		}

		st, err := r.Apply(u, impl, copies)
		if err != nil {
			return nil, err
		}
		est += copies*cost[impl] - g.MinExpansion(name)
		if estimateHook != nil {
			estimateHook(r, est)
		}
		delete(depth, u)
		for c := 0; c < copies; c++ {
			for v, id := range st.IDs[c] {
				childName := s.Graph(impl).G.Name(graph.VertexID(v))
				if !s.Kind(childName).Composite() {
					continue
				}
				depth[id] = d
				if childName == "Agent" {
					depth[id] = d + 1
					if depth[id] > tr.Depth {
						tr.Depth = depth[id]
					}
				}
				if childName == "Tool" {
					tr.ToolCalls++
				}
			}
		}
		switch {
		case name == "Calls" && copies > 1:
			tr.Bursts++
		case name == "Tool" && copies > 1:
			tr.Retries += copies - 1
		}
	}
	if tr.Depth == 0 {
		tr.Depth = 1 // the root agent answered directly
	}

	evs, err := r.Execution(rand.New(rand.NewSource(opts.Seed ^ 0x5DEECE66D)))
	if err != nil {
		return nil, err
	}
	tr.Events, tr.Run = evs, r
	return tr, nil
}
