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

// TestEncodeDecodeRoundTrip: a RunningExample label with every node
// type — the root, a loop copy, a fork copy, a recursion-chain member,
// and the s5 of the B slot it expands.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := codec(t)
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 2, Type: label.N, Skl: ref(1, 1)}).
		Append(label.Entry{Index: 0, Type: label.F, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(2, 1)}).
		Append(label.Entry{Index: 0, Type: label.R, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 1)}).
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(5, 0)})
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
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLabel(rng, g, 1+rng.Intn(8))
		dec, err := c.Decode(c.Encode(l))
		return err == nil && dec.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBitLenVersusEncodedSize(t *testing.T) {
	// BitLen uses the paper's word-RAM accounting; Encode codes each
	// index instead of its value bits — a slot rank among g0's or h1's
	// one composite vertex in no bits at all, where BitLen counts 1;
	// loop copy 5 in order-4 Exp-Golomb (5 bits, not 3) and fork copy
	// 117 in order 3 (10 bits, not 7) — then writes a stop bit and pads
	// to a whole byte.
	c := codec(t)
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 5, Type: label.N, Skl: ref(1, 1)}).
		Append(label.Entry{Index: 0, Type: label.F, Skl: spec.NoRef}).
		Append(label.Entry{Index: 117, Type: label.N, Skl: ref(2, 2)})
	bits := c.BitLen(l)
	framing := -1 + (5 - 3) - 1 + (10 - 7) + 1
	if enc, want := c.EncodedBits(l), (bits+framing+7)/8*8; enc != want {
		t.Fatalf("encoded %d bits for BitLen %d, want %d", enc, bits, want)
	}
}

func TestBitLenComponents(t *testing.T) {
	c := codec(t)
	// Single root entry: no type, no index (always 0), 1 bit for s0's
	// rank among g0's two atomic vertices.
	l := label.Label{}.Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 0)})
	if got := c.BitLen(l); got != 1 {
		t.Fatalf("BitLen = %d, want 1", got)
	}
	// An interior N entry whose context allows one graph stores nothing
	// but its index: the next index names its origin, and the slot it
	// ranks, g0's loop module, makes that entry an L entry.
	interior := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(1, 0)})
	if got := c.BitLen(interior); got != 0+1+(1+1) {
		t.Fatalf("BitLen(%s) = %d, want 3", interior, got)
	}
	// Index widths grow logarithmically: index 1 costs 1 bit, index 2-3
	// cost 2, index 1000 costs 10 (the log θ_t term of Theorem 3).
	grow := func(idx int32) int {
		ll := label.Label{}.
			Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
			Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
			Append(label.Entry{Index: idx, Type: label.N, Skl: ref(1, 0)})
		return c.BitLen(ll) - 2
	}
	if grow(1) != 1 || grow(3) != 2 || grow(1000) != 10 {
		t.Fatalf("index widths wrong: %d %d %d", grow(1), grow(3), grow(1000))
	}
}

// TestImpliedFieldsCostNothing: a label stores no type the grammar
// fixes and no recursion flag. Down to an h3 chain member: the L and F
// entries cost their index alone, the R entry its index and the one bit
// that tells it from an instance of A's slot, and the chain member its
// index and its rank among the six atomic vertices of A's chain set —
// none of Algorithm 1's 2 type bits or 2 flag bits.
func TestImpliedFieldsCostNothing(t *testing.T) {
	c := codec(t)
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(1, 1)}).
		Append(label.Entry{Index: 0, Type: label.F, Skl: spec.NoRef}).
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(2, 1)}).
		Append(label.Entry{Index: 0, Type: label.R, Skl: spec.NoRef}).
		Append(label.Entry{Index: 3, Type: label.N, Skl: ref(3, 0)})
	prefix := func(n int) int { return c.BitLen(label.Label{Entries: l.Entries[:n]}) }
	for _, tc := range []struct {
		name      string
		got, want int
	}{
		{"root and L entry", prefix(2), 1},
		{"loop copy and F entry", prefix(4) - prefix(2), 1 + 1},
		{"fork copy and R entry", prefix(6) - prefix(4), 1 + 1 + 1},
		{"chain member", prefix(7) - prefix(6), 2 + 3},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %d bits, want %d", tc.name, tc.got, tc.want)
		}
	}
	// The same slot expanded by an instance instead: its index, the type
	// bit, and a rank among the four atomic vertices of h3 and h4.
	plain := label.Label{Entries: append(l.Entries[:5:5], label.Entry{Index: 0, Type: label.N, Skl: ref(3, 0)})}
	if got := c.BitLen(plain) - prefix(4); got != 1+(1+1+2) {
		t.Errorf("fork copy and an instance of A: %d bits, want 5", got)
	}
	// The labelers issue no other types: one the slot does not imply
	// panics, however cheap it would be.
	for _, bad := range []label.Label{
		{Entries: []label.Entry{{Index: 0, Type: label.L, Skl: spec.NoRef}}},
		{Entries: append(l.Entries[:1:1], label.Entry{Index: 0, Type: label.N, Skl: ref(1, 0)})},
		{Entries: append(l.Entries[:5:5], label.Entry{Index: 0, Type: label.F, Skl: spec.NoRef})},
		{Entries: append(l.Entries[:6:6], label.Entry{Index: 0, Type: label.R, Skl: spec.NoRef})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", bad)
				}
			}()
			c.BitLen(bad)
		}()
	}
}

func TestDecodeErrors(t *testing.T) {
	c := codec(t)
	if _, err := c.Decode(nil); err == nil {
		t.Fatal("decoding empty input must fail")
	}
	l := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(1, 0)})
	enc := c.Encode(l)
	if _, err := c.Decode(enc[:len(enc)-1]); err == nil {
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
		Append(label.Entry{Index: 1, Type: label.N, Skl: ref(3, 0)})
	s := l.String()
	for _, want := range []string{"(0,N,g0:1)", "(1,R)", "(1,N,g3:0)"} {
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
