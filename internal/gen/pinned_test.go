package gen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// pinnedStreams is the SHA-256 of every stream TestGeneratedStreamsArePinned
// derives. A different hash means some seed now yields a different run or
// execution, and so different benchmark inputs: only a change meant to
// alter the generated workloads may record a new one.
const pinnedStreams = "5c412790582f607592a2549eb9a052b6281799cae25041081124ad7adb29bb9d"

// pinnedDerivations is the SHA-256 of the derivation behind every run
// TestGeneratedStreamsArePinned derives: its steps and its spec mapping,
// which the derivation labeler and the run XML consume. Like
// pinnedStreams, only a change meant to alter the generated workloads may
// record a new one.
const pinnedDerivations = "2a4c2d3f1519bd99e6c52d51f2c22dd7227dc994f14f07cf26206c6fa30c3868"

// hashStream feeds one event stream and its final graph into h: each
// event as V, Ref and its predecessor list, then every edge of the graph
// in adjacency order, all as little-endian int32 words.
func hashStream(h hash.Hash, evs []run.Event, g *graph.Graph) {
	var buf []byte
	word := func(x int32) { buf = binary.LittleEndian.AppendUint32(buf, uint32(x)) }
	word(int32(len(evs)))
	for _, ev := range evs {
		word(int32(ev.V))
		word(int32(ev.Ref.Graph))
		word(int32(ev.Ref.V))
		word(int32(len(ev.Preds)))
		for _, p := range ev.Preds {
			word(int32(p))
		}
	}
	word(int32(g.NumVertices()))
	for v := 0; v < g.NumVertices(); v++ {
		out := g.Out(graph.VertexID(v))
		word(int32(len(out)))
		for _, w := range out {
			word(int32(w))
		}
	}
	h.Write(buf)
}

// hashDerivation feeds a run's derivation into h: each step as Target,
// Impl, Copies and every row of IDs, then SpecOf for every run vertex,
// all as little-endian int32 words.
func hashDerivation(h hash.Hash, r *run.Run) {
	var buf []byte
	word := func(x int32) { buf = binary.LittleEndian.AppendUint32(buf, uint32(x)) }
	word(int32(len(r.Steps)))
	for _, st := range r.Steps {
		word(int32(st.Target))
		word(int32(st.Impl))
		word(int32(st.Copies))
		word(int32(len(st.IDs)))
		for _, row := range st.IDs {
			word(int32(len(row)))
			for _, id := range row {
				word(int32(id))
			}
		}
	}
	word(int32(len(r.SpecOf)))
	for _, ref := range r.SpecOf {
		word(int32(ref.Graph))
		word(int32(ref.V))
	}
	h.Write(buf)
}

// TestGeneratedStreamsArePinned holds the generators to their output:
// the same options must give byte-identical events and run graphs, so a
// change to how a run is derived cannot silently change any workload.
func TestGeneratedStreamsArePinned(t *testing.T) {
	h, d := sha256.New(), sha256.New()
	g := spec.MustCompile(wfspecs.BioAID())
	for _, c := range []struct{ size, maxCopies int }{{2048, 64}, {2048, 0}, {100_000, 128}, {100_000, 0}} {
		for _, depthFirst := range []bool{false, true} {
			evs, r, err := gen.GenerateEvents(g, gen.Options{
				TargetSize: c.size, Seed: 7, MaxCopies: c.maxCopies, DepthFirst: depthFirst,
			})
			if err != nil {
				t.Fatalf("size %d cap %d depthFirst %v: %v", c.size, c.maxCopies, depthFirst, err)
			}
			hashStream(h, evs, r.Graph)
			hashDerivation(d, r)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 6250, Seed: seed})
		if err != nil {
			t.Fatalf("agent seed %d: %v", seed, err)
		}
		hashStream(h, tr.Events, tr.Run.Graph)
		hashDerivation(d, tr.Run)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedStreams {
		t.Errorf("generated streams hash to %s, pinned %s", got, pinnedStreams)
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != pinnedDerivations {
		t.Errorf("generated derivations hash to %s, pinned %s", got, pinnedDerivations)
	}
}
