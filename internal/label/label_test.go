package label_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func codec(t *testing.T) *label.Codec {
	t.Helper()
	return label.NewCodec(spec.MustCompile(wfspecs.RunningExample()))
}

func ref(g, v int) spec.VertexRef {
	return spec.VertexRef{Graph: spec.GraphID(g), V: graph.VertexID(v)}
}

func TestAppendImmutability(t *testing.T) {
	base := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 0)})
	a := base.Append(label.Entry{Index: 1, Type: label.L, Skl: spec.NoRef})
	b := base.Append(label.Entry{Index: 2, Type: label.F, Skl: spec.NoRef})
	if a.Entries[1].Index != 1 || b.Entries[1].Index != 2 {
		t.Fatal("appends interfered")
	}
	if base.Len() != 1 {
		t.Fatal("base label mutated")
	}
	if base.IsZero() || !(label.Label{}).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestEqual(t *testing.T) {
	a := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)})
	b := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)})
	c := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 2)})
	if !a.Equal(b) || a.Equal(c) || a.Equal(label.Label{}) {
		t.Fatal("Equal wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := codec(t)
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 1, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 2, Type: label.N, Skl: ref(1, 1)}).
		Append(label.Entry{Index: 1, Type: label.R, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 2), HasRec: true, Rec1: true, Rec2: false}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 1)})
	enc := c.Encode(l)
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(l) {
		t.Fatalf("round trip mismatch:\n in: %s\nout: %s", l, dec)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	c := codec(t)
	g := spec.MustCompile(wfspecs.RunningExample())
	graphs := g.Spec().Graphs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l label.Label
		depth := 1 + rng.Intn(8)
		prevR := false
		for i := 0; i < depth; i++ {
			e := label.Entry{Index: int32(rng.Intn(1000)), Skl: spec.NoRef}
			switch rng.Intn(4) {
			case 0:
				e.Type = label.L
			case 1:
				e.Type = label.F
			case 2:
				e.Type = label.R
			default:
				e.Type = label.N
				gid := rng.Intn(len(graphs))
				e.Skl = ref(gid, rng.Intn(graphs[gid].G.NumVertices()))
			}
			if prevR && rng.Intn(2) == 0 {
				e.HasRec, e.Rec1, e.Rec2 = true, rng.Intn(2) == 0, rng.Intn(2) == 0
			}
			prevR = e.Type == label.R
			l = l.Append(e)
		}
		dec, err := c.Decode(c.Encode(l))
		return err == nil && dec.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBitLenVersusEncodedSize(t *testing.T) {
	// BitLen uses the paper's word-RAM accounting; Encode prefix-codes
	// each index (order-2 Exp-Golomb: 3 bits for index 0, 5 for 5, 11 for
	// 117 — the value bits plus a prefix), prefixes a coded entry count
	// (4 bits for 3 entries), and pads to a whole byte.
	c := codec(t)
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 0)}).
		Append(label.Entry{Index: 5, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 117, Type: label.N, Skl: ref(2, 1)})
	bits := c.BitLen(l)
	framing := 4 + (3 - 1) + (5 - 3) + (11 - 7)
	if enc, want := c.EncodedBits(l), (bits+framing+7)/8*8; enc != want {
		t.Fatalf("encoded %d bits for BitLen %d, want %d", enc, bits, want)
	}
}

func TestBitLenComponents(t *testing.T) {
	c := codec(t)
	// Single root entry: 2 (type) + 1 (index 0) + ptr bits.
	l := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 0)})
	want := 2 + 1 + c.PointerBits()
	if got := c.BitLen(l); got != want {
		t.Fatalf("BitLen = %d, want %d", got, want)
	}
	// Index widths grow logarithmically: index 1 costs 1 bit, index 2-3
	// cost 2, index 1000 costs 10 (the log θ_t term of Theorem 3).
	grow := func(idx int32) int {
		ll := label.Label{}.Append(label.Entry{Index: idx, Type: label.L, Skl: spec.NoRef})
		return c.BitLen(ll)
	}
	if grow(1) != 2+1 || grow(3) != 2+2 || grow(1000) != 2+10 {
		t.Fatalf("index widths wrong: %d %d %d", grow(1), grow(3), grow(1000))
	}
	// Special entries carry no pointer.
	if grow(0) >= want {
		t.Fatal("special entry should be cheaper than N entry")
	}
}

func TestRecFlagAccounting(t *testing.T) {
	c := codec(t)
	// Children of an R node always account 1+1 recursion-flag bits
	// (Algorithm 1's accounting), whether or not the flags are set.
	under := label.Label{}.
		Append(label.Entry{Index: 1, Type: label.R, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 0), HasRec: true, Rec1: true})
	plain := label.Label{}.
		Append(label.Entry{Index: 1, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 0)})
	if c.BitLen(under) != c.BitLen(plain)+2 {
		t.Fatalf("R-chain member should cost 2 extra bits: %d vs %d",
			c.BitLen(under), c.BitLen(plain))
	}
}

func TestDecodeErrors(t *testing.T) {
	c := codec(t)
	if _, err := c.Decode(nil); err == nil {
		t.Fatal("decoding empty input must fail")
	}
	l := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 0)})
	enc := c.Encode(l)
	if _, err := c.Decode(enc[:1]); err == nil {
		t.Fatal("decoding truncated input must fail")
	}
}

func TestEncodePanicsOnMissingPointer(t *testing.T) {
	c := codec(t)
	defer func() {
		if recover() == nil {
			t.Fatal("N entry without skeleton pointer must panic")
		}
	}()
	c.Encode(label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: spec.NoRef}))
}

func TestEntryAndLabelString(t *testing.T) {
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 1, Type: label.R, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 0), HasRec: true, Rec1: true})
	s := l.String()
	for _, want := range []string{"(0,N,g0:1)", "(1,R)", "true,false"} {
		if !contains(s, want) {
			t.Fatalf("String() = %s missing %q", s, want)
		}
	}
	if label.L.String() != "L" || label.NodeType(9).String() == "" {
		t.Fatal("NodeType.String wrong")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
