package label_test

import (
	"bytes"
	"math/rand"
	"testing"

	"wfreach/internal/label"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// benchLabels returns n random labels of RunningExample (randomLabel,
// 3 to 8 entries deep).
func benchLabels(n int) ([]label.Label, *label.Codec) {
	g := spec.MustCompile(wfspecs.RunningExample())
	rng := rand.New(rand.NewSource(9))
	out := make([]label.Label, n)
	for i := range out {
		out[i] = randomLabel(rng, g, 3+rng.Intn(6))
	}
	return out, label.NewCodec(g)
}

// randomLabel walks g's choice sets at random for up to depth entries,
// one more where the last would be an L, F or R entry: the root, then
// below an N entry a slot rank and the type the slot implies — R or N
// at random where it leaves them open — and below an L, F or R entry a
// copy's or chain member's index up to 1000; a graph the context allows
// on every N entry, with its origin the slot the next entry expands; an
// atomic vertex on the last, an N entry. It stops early below an
// instance without composite vertices.
func randomLabel(rng *rand.Rand, g *spec.Grammar, depth int) label.Label {
	entries := []label.Entry{{Type: label.N, Skl: spec.NoRef}}
	set := g.RootChoices()
	for i := 0; i < depth || entries[i-1].Type != label.N; i++ {
		if i > 0 {
			e := label.Entry{Index: int32(rng.Intn(1000)), Type: label.N, Skl: spec.NoRef}
			if above := &entries[i-1]; above.Type == label.N {
				slots := vertices(g, above.Skl.Graph, true)
				if len(slots) == 0 {
					break
				}
				e.Index = int32(rng.Intn(len(slots)))
				above.Skl.V = slots[e.Index]
				slot, _ := g.Slot(above.Skl.Graph, e.Index)
				e.Type = label.NodeType(slot.Type())
				if slot.Type() == spec.SlotRN && rng.Intn(2) == 0 {
					e.Type = label.N
				}
				set = slot.Choices(e.Type == label.R)
			}
			entries = append(entries, e)
		}
		if e := &entries[i]; e.Type == label.N {
			graphs := choiceGraphs(g, set)
			e.Skl.Graph = graphs[rng.Intn(len(graphs))]
		}
	}
	if last := &entries[len(entries)-1]; last.Type == label.N {
		atoms := vertices(g, last.Skl.Graph, false)
		last.Skl.V = atoms[rng.Intn(len(atoms))]
	}
	return label.Label{Entries: entries}
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

// FuzzDecode: arbitrary bytes must never panic the decoder — they are
// an error, or a label whose encoding is exactly those bytes.
func FuzzDecode(f *testing.F) {
	ls, c := benchLabels(8)
	for _, l := range ls {
		f.Add(c.Encode(l))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x12})
	f.Add(c.Encode(deepLabel(label.MaxEntries))) // the deepest label the encoding holds
	// Position codes from the shortest to the longest, whose 59 bits are more
	// than one refill of the reader's window.
	for _, idx := range []int32{0, 1, 2, 1 << 30, 1<<31 - 1} {
		l := label.Label{}.
			Append(label.Entry{Index: 0, Type: label.N, Skl: spec.VertexRef{Graph: 0, V: 1}}).
			Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
			Append(label.Entry{Index: idx, Type: label.N, Skl: spec.VertexRef{Graph: 1, V: 0}})
		f.Add(c.Encode(l))
	}
	// Each value the grammar does not hold, in a code that is whole.
	for _, r := range refusals(spec.MustCompile(wfspecs.RunningExample())) {
		f.Add(r.data)
	}
	// Where the stop bit puts the end: a stop bit alone, bytes without
	// one, a label cut inside its last entry and one with a byte more,
	// and one entry past MaxEntries.
	tail := c.Encode(ls[0])
	f.Add([]byte{0x80})
	f.Add([]byte{0x12, 0x00})
	f.Add(tail[:len(tail)-1])
	f.Add(append(bytes.Clone(tail), 0x01))
	f.Add(refEncode(spec.MustCompile(wfspecs.RunningExample()), deepLabel(label.MaxEntries+1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := c.Decode(data)
		if err != nil {
			return
		}
		if enc := c.Encode(l); !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes to %s, which encodes to %x", data, l, enc)
		}
	})
}
