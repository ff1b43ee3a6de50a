package integrity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// frame wraps payload in a frame header: eight bytes the chain skips,
// filled with junk so a chain that hashed them would show it.
func frame(payload string) []byte {
	return append([]byte{0xde, 0xad, 0xbe, 0xef, byte(len(payload)), 1, 2, 3}, payload...)
}

func TestChainDefinition(t *testing.T) {
	// head(n) = SHA-256(payload(1) || … || payload(n)), the zero head
	// before any — spelled out longhand so the running Chainer is pinned
	// to the definition, not to itself.
	payloads := []string{"alpha", "beta", "gamma"}
	c := NewChainer()
	var head Head
	if c.Head() != head {
		t.Fatalf("a new chain's head is %s, want the zero head", c.Head())
	}
	stream := ""
	for _, p := range payloads {
		stream += p
		want := Head(sha256.Sum256([]byte(stream)))
		if head = c.Extend(head, frame(p)); head != want || c.Head() != want {
			t.Fatalf("after %q: Extend %s, Head %s; the definition says %s", stream, head, c.Head(), want)
		}
	}
}

func TestChainOrderAndContentSensitivity(t *testing.T) {
	chain := func(frames ...string) Head {
		c := NewChainer()
		var h Head
		for _, f := range frames {
			h = c.Extend(h, frame(f))
		}
		return h
	}
	a := chain("x", "y")
	if a == chain("y", "x") {
		t.Fatal("chain is order-insensitive")
	}
	if a == chain("x", "z") {
		t.Fatal("chain is content-insensitive")
	}
	// The chain commits to records, not frames: ["xy"] and ["x","y"]
	// carry one record stream, so they have one head.
	if a != chain("xy") {
		t.Fatal("chain depends on how the records were framed")
	}
}

func TestExtendRefusesAForeignHead(t *testing.T) {
	c := NewChainer()
	h := c.Extend(Head{}, frame("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("Extend from a head the chain is not at did not panic")
		}
	}()
	h[0] ^= 1
	c.Extend(h, frame("y"))
}

func TestHeadHexRoundTrip(t *testing.T) {
	h := NewChainer().Extend(Head{}, frame("record"))
	s := h.String()
	back, err := hex.DecodeString(s)
	if len(s) != 64 || err != nil || !bytes.Equal(back, h[:]) {
		t.Fatalf("String() = %q", s)
	}
	var zero Head
	if !zero.IsZero() || h.IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

// entry is one label extent as the accumulator sees it.
type entry struct {
	v     uint32
	label []byte
}

// naiveRoot is the reference Merkle definition, written from the package
// doc rather than from the accumulator: the entries cut into pages of
// 64, each page's leaf hashed over bytes laid out by hand, then leaves
// combined pairwise level by level, an odd node at the end of a level
// promoted as-is (which is what bagging the streaming stack right to
// left produces). No entries: the zero head.
func naiveRoot(entries []entry) Head {
	if len(entries) == 0 {
		return Head{}
	}
	var level []Head
	for lo := 0; lo < len(entries); lo += 64 {
		page := []byte{0x00}
		for _, e := range entries[lo:min(lo+64, len(entries))] {
			page = append(page, byte(e.v), byte(e.v>>8), byte(e.v>>16), byte(e.v>>24))
			n := len(e.label)
			for ; n >= 0x80; n >>= 7 {
				page = append(page, byte(n)|0x80)
			}
			page = append(page, byte(n))
			page = append(page, e.label...)
		}
		level = append(level, sha256.Sum256(page))
	}
	for len(level) > 1 {
		var next []Head
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			in := append(append([]byte{0x01}, level[i][:]...), level[i+1][:]...)
			next = append(next, sha256.Sum256(in))
		}
		level = next
	}
	return level[0]
}

// testEntries is n extents on sparse vertex ids, of lengths 0 to 199 so
// that some length prefixes take two varint bytes.
func testEntries(n int) []entry {
	out := make([]entry, n)
	for i := range out {
		label := make([]byte, (i*37)%200)
		for j := range label {
			label[j] = byte(i + 3*j)
		}
		out[i] = entry{v: uint32(3*i + i%5), label: label}
	}
	return out
}

func rootOf(entries []entry) Head {
	m := NewMerkle()
	for _, e := range entries {
		m.AddLabel(e.v, e.label)
	}
	return m.Root()
}

func TestMerkleMatchesNaiveDefinition(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 449, 4097} {
		entries := testEntries(n)
		if got, want := rootOf(entries), naiveRoot(entries); got != want {
			t.Fatalf("n=%d: streaming root %s, naive root %s", n, got, want)
		}
	}
}

// TestMerkleRootPinned pins one root, so that a change to the leaf or
// node definition — which both implementations above could share — shows
// as a changed constant.
func TestMerkleRootPinned(t *testing.T) {
	const want = "4fc2b3ff62841f503b49ab10087d5d70395aa9b2a17dc2e9d02a3bc85bd8f463"
	if got := rootOf(testEntries(200)).String(); got != want {
		t.Fatalf("root over 200 labels = %s, pinned %s", got, want)
	}
}

func TestMerkleSensitivity(t *testing.T) {
	// 100 labels: one full page and a partial one.
	build := func(mutate func(es []entry) []entry) Head {
		es := make([]entry, 100)
		for i := range es {
			es[i] = entry{v: uint32(i), label: []byte{byte(i), 0x7F, byte(i >> 2)}}
		}
		es[10].label, es[11].label = []byte("ab"), []byte("c")
		return rootOf(mutate(es))
	}
	base := build(func(es []entry) []entry { return es })
	if base != build(func(es []entry) []entry { return es }) {
		t.Fatal("root is not deterministic")
	}
	for _, tc := range []struct {
		name   string
		mutate func(es []entry) []entry
	}{
		{"one label byte flipped", func(es []entry) []entry { es[4].label[1] ^= 0x01; return es }},
		{"a label moved to another vertex", func(es []entry) []entry { es[4].v = 1000; return es }},
		{`"ab","c" cut as "a","bc"`, func(es []entry) []entry {
			es[10].label, es[11].label = []byte("a"), []byte("bc")
			return es
		}},
		{"two labels swapped within a page", func(es []entry) []entry {
			es[20].label, es[21].label = es[21].label, es[20].label
			return es
		}},
		{"the last label of the partial page dropped", func(es []entry) []entry { return es[:len(es)-1] }},
	} {
		if build(tc.mutate) == base {
			t.Errorf("%s: root unchanged", tc.name)
		}
	}
}

// TestMerkleRootOfEveryPrefix: Root does not consume the page in
// progress — after k labels it is the root a fresh accumulator gives the
// first k, at every k across page boundaries.
func TestMerkleRootOfEveryPrefix(t *testing.T) {
	entries := testEntries(300)
	m := NewMerkle()
	for k, e := range entries {
		if got, want := m.Root(), rootOf(entries[:k]); got != want {
			t.Fatalf("k=%d: running root %s, fresh root %s", k, got, want)
		}
		m.AddLabel(e.v, e.label)
	}
	if got, want := m.Root(), naiveRoot(entries); got != want {
		t.Fatalf("k=%d: running root %s, naive root %s", len(entries), got, want)
	}
}
