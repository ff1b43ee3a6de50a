package label_test

import (
	"math/rand"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func benchLabels(n int) ([]label.Label, *label.Codec) {
	g := spec.MustCompile(wfspecs.RunningExample())
	c := label.NewCodec(g)
	graphs := g.Spec().Graphs()
	rng := rand.New(rand.NewSource(9))
	out := make([]label.Label, n)
	for i := range out {
		var l label.Label
		depth := 3 + rng.Intn(6)
		for d := 0; d < depth; d++ {
			e := label.Entry{Index: int32(rng.Intn(500)), Skl: spec.NoRef}
			if d%2 == 0 {
				gid := rng.Intn(len(graphs))
				e.Type = label.N
				e.Skl = spec.VertexRef{Graph: spec.GraphID(gid),
					V: graph.VertexID(rng.Intn(graphs[gid].G.NumVertices()))}
			} else {
				e.Type = label.L
			}
			l = l.Append(e)
		}
		out[i] = l
	}
	return out, c
}

func BenchmarkEncode(b *testing.B) {
	ls, c := benchLabels(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(ls[i%len(ls)])
	}
}

func BenchmarkDecode(b *testing.B) {
	ls, c := benchLabels(1024)
	enc := make([][]byte, len(ls))
	for i := range ls {
		enc[i] = c.Encode(ls[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(enc[i%len(enc)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitLen(b *testing.B) {
	ls, c := benchLabels(1024)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += c.BitLen(ls[i%len(ls)])
	}
	_ = total
}

// FuzzDecode: arbitrary bytes must never panic the decoder — they
// either round-trip or error.
func FuzzDecode(f *testing.F) {
	ls, c := benchLabels(8)
	for _, l := range ls {
		f.Add(c.Encode(l))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x12})
	f.Add(c.Encode(deepLabel(label.MaxEntries))) // the deepest label the encoding holds
	// Index codes from the shortest to the longest, whose 61 bits are more
	// than one refill of the reader's window.
	for _, idx := range []int32{0, 1, 2, 1 << 30, 1<<31 - 1} {
		l := label.Label{}.
			Append(label.Entry{Index: 0, Type: label.N, Skl: spec.VertexRef{Graph: 0, V: 1}}).
			Append(label.Entry{Index: idx, Type: label.L, Skl: spec.NoRef}).
			Append(label.Entry{Index: idx, Type: label.N, Skl: spec.VertexRef{Graph: 1, V: 1}})
		f.Add(c.Encode(l))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := c.Decode(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same label.
		l2, err := c.Decode(c.Encode(l))
		if err != nil || !l2.Equal(l) {
			t.Fatalf("re-decode mismatch: %v / %s vs %s", err, l, l2)
		}
	})
}
