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

// TestGeneratedStreamsArePinned holds the generators to their output:
// the same options must give byte-identical events and run graphs, so a
// change to how a run is derived cannot silently change any workload.
func TestGeneratedStreamsArePinned(t *testing.T) {
	h := sha256.New()
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
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 6250, Seed: seed})
		if err != nil {
			t.Fatalf("agent seed %d: %v", seed, err)
		}
		hashStream(h, tr.Events, tr.Run.Graph)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedStreams {
		t.Fatalf("generated streams hash to %s, pinned %s", got, pinnedStreams)
	}
}
