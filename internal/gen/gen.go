// Package gen generates random workflow runs from a grammar, as the
// paper's evaluation does for its synthetic workloads: "we simulate
// the execution by repeating loops, forks and recursion a random
// number of times" (Section 7.1), with run sizes steered toward a
// target vertex count (1K to 32K in the paper's sweeps).
//
// Generation applies derivation steps to a run.Run in FIFO order over
// the open composite vertices, choosing implementations and repetition
// counts under a size budget: while the estimated final size is below
// the target, expansive choices (recursive implementations, extra loop
// and fork copies) are allowed; once the budget is spent, every choice
// is the cheapest terminating one, so generation always terminates.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

// Options steers generation.
type Options struct {
	// TargetSize is the desired number of vertices of the final run.
	// The result lands near it (generation stops expanding once the
	// estimate reaches it). Values below the grammar's minimum run
	// size yield the minimal run.
	TargetSize int
	// Seed drives all random choices; equal seeds give equal runs.
	Seed int64
	// MaxCopies caps the repetitions of one loop or fork expansion
	// (0 means no cap beyond the size budget).
	MaxCopies int
	// Spread dampens how much of the remaining budget a single loop or
	// fork expansion may consume; 0 defaults to 4 (about a quarter).
	Spread int
	// ExpandBias is the probability of preferring a non-minimal
	// implementation (continuing recursion, picking a larger
	// alternative) while the size budget allows it; 0 defaults to 0.85.
	ExpandBias float64
	// DepthFirst expands the most recently created composite first
	// (LIFO), producing derivations of maximal recursion depth — the
	// adversarial shape behind the Ω(n) lower bounds (Theorem 1). The
	// default FIFO order keeps sibling expansions aligned with
	// execution order.
	DepthFirst bool
}

// Generate derives a random run of roughly opts.TargetSize vertices.
func Generate(g *spec.Grammar, opts Options) (*run.Run, error) {
	if opts.TargetSize <= 0 {
		opts.TargetSize = g.MinRunSize()
	}
	if opts.Spread <= 0 {
		opts.Spread = 4
	}
	if opts.ExpandBias <= 0 {
		opts.ExpandBias = 0.85
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	r := run.New(g)
	// The run ends at about the target plus one tombstone per step
	// (2-4% of BioAID's vertices); reserving that once spares the
	// per-vertex arrays their growth copies.
	r.Grow(opts.TargetSize + opts.TargetSize/16)
	s := g.Spec()

	cost := implCosts(g)
	est := cost[spec.StartGraph] // live atoms + Σ minimal expansion over open composites

	var affordable, expansive []spec.GraphID
	maxSteps := opts.TargetSize*4 + 4096
	for steps := 0; !r.Complete(); steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("gen: exceeded %d steps (target %d)", maxSteps, opts.TargetSize)
		}
		u := r.Open()[0] // FIFO keeps sibling expansions in vertex order
		if opts.DepthFirst {
			u = r.Open()[len(r.Open())-1]
		}
		name := r.NameOf(u)
		impls := s.Implementations(name)
		minE := g.MinExpansion(name)
		room := opts.TargetSize - est

		// Choose an implementation: any whose extra cost over the
		// minimum fits the remaining room; the cheapest otherwise.
		// While the budget allows, prefer non-minimal choices (this is
		// what sustains recursion depth and implementation variety).
		cheapest, cheapestCost := impls[0], math.MaxInt32
		for _, id := range impls {
			if c := cost[id]; c < cheapestCost {
				cheapest, cheapestCost = id, c
			}
		}
		affordable, expansive = affordable[:0], expansive[:0]
		for _, id := range impls {
			c := cost[id]
			if c-minE <= room {
				affordable = append(affordable, id)
				if c > cheapestCost {
					expansive = append(expansive, id)
				}
			}
		}
		impl := cheapest
		switch {
		case len(expansive) > 0 && rng.Float64() < opts.ExpandBias:
			impl = expansive[rng.Intn(len(expansive))]
		case len(affordable) > 0:
			impl = affordable[rng.Intn(len(affordable))]
		}

		copies := 1
		kind := s.Kind(name)
		if kind == spec.Loop || kind == spec.Fork {
			c := cost[impl]
			extra := (room - (c - minE)) / (c * opts.Spread / 2)
			if extra > 0 {
				copies += rng.Intn(extra + 1)
			}
			if opts.MaxCopies > 0 && copies > opts.MaxCopies {
				copies = opts.MaxCopies
			}
		}
		if _, err := r.Apply(u, impl, copies); err != nil {
			return nil, err
		}
		est += copies*cost[impl] - minE
		if estimateHook != nil {
			estimateHook(r, est)
		}
	}
	return r, nil
}

// estimateHook, when set, sees the run and the running size estimate
// after every derivation step, so tests can hold the estimate to a
// rescan of the run.
var estimateHook func(r *run.Run, est int)

// implCosts returns, for every graph of g, what one copy of it adds to
// the size estimate: its atoms plus the minimal expansion of each of
// its composites.
func implCosts(g *spec.Grammar) []int {
	s := g.Spec()
	cost := make([]int, len(s.Graphs()))
	for id, ng := range s.Graphs() {
		for v := 0; v < ng.G.NumVertices(); v++ {
			if n := ng.G.Name(graph.VertexID(v)); s.Kind(n).Composite() {
				cost[id] += g.MinExpansion(n)
			} else {
				cost[id]++
			}
		}
	}
	return cost
}

// GenerateEvents derives a random run and converts it into its
// execution event stream — the input a streaming labeler or load
// generator replays. The insertion order is a random topological order
// drawn from the same seed, so equal options give equal streams. The
// run is returned alongside the events as the ground-truth oracle
// (run.Reaches) for verifying label answers.
func GenerateEvents(g *spec.Grammar, opts Options) ([]run.Event, *run.Run, error) {
	r, err := Generate(g, opts)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5DEECE66D))
	evs, err := r.Execution(rng)
	if err != nil {
		return nil, nil, err
	}
	return evs, r, nil
}

// MustGenerate is Generate panicking on error (for tests and benches).
func MustGenerate(g *spec.Grammar, opts Options) *run.Run {
	r, err := Generate(g, opts)
	if err != nil {
		panic(err)
	}
	return r
}
