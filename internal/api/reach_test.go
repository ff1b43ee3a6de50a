package api

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// reachParts splits answers into what the binary response carries: the
// bitmap and the failures. It is the reference the codec is tested
// against, written the obvious way.
func reachParts(answers []ReachAnswer) (ReachBits, []ReachFailure) {
	bits := make(ReachBits, (len(answers)+7)/8)
	var fails []ReachFailure
	for i, a := range answers {
		switch {
		case a.Code != "":
			fails = append(fails, ReachFailure{Index: i, Code: a.Code, Message: a.Error})
		case a.Reachable:
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return bits, fails
}

// randomAnswers draws n pairs over the whole int32 range with their
// answers: mostly booleans, a failure now and then, and one at each of
// the given indexes.
func randomAnswers(rng *rand.Rand, n int, failAt ...int) ([]ReachPair, []ReachAnswer) {
	pairs, answers := make([]ReachPair, n), make([]ReachAnswer, n)
	for i := range pairs {
		pairs[i] = ReachPair{From: int32(rng.Uint32()), To: int32(rng.Uint32())}
		if rng.Intn(4) == 0 {
			pairs[i] = ReachPair{From: rng.Int31n(200), To: rng.Int31n(200) - 100}
		}
		answers[i] = ReachAnswer{From: pairs[i].From, To: pairs[i].To, Reachable: rng.Intn(2) == 0}
		if rng.Intn(9) == 0 || slices.Contains(failAt, i) {
			answers[i].Reachable = false
			answers[i].Code = CodeVertexNotLabeled
			answers[i].Error = fmt.Sprintf("vertex %d not labeled yet", pairs[i].To)
		}
	}
	return pairs, answers
}

// TestReachCodecRoundTrip: both halves of the binary form give back
// what went in, at every batch size around a bitmap byte's edge, with a
// failure on the first and on the last pair, into a buffer that already
// holds something.
func TestReachCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1000, MaxReachPairs} {
		failAt := []int{0, n - 1}
		if n == 2 {
			failAt = nil // a small batch without failures too
		}
		pairs, answers := randomAnswers(rng, n, failAt...)

		prefix := []ReachPair{{From: -1, To: -2}}
		body := AppendReachRequest([]byte("kept"), pairs)
		if len(body)-4 > MaxReachRequestBytes {
			t.Fatalf("n=%d: request of %d bytes, MaxReachRequestBytes is %d", n, len(body)-4, MaxReachRequestBytes)
		}
		got, err := DecodeReachRequestInto(slices.Clone(prefix), body[4:])
		if err != nil || !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], pairs) || string(body[:4]) != "kept" {
			t.Fatalf("n=%d: request round trip: %v\n got %v\nwant %v", n, err, got, pairs)
		}

		bits, fails := reachParts(answers)
		resp := AppendReachResponse([]byte("kept"), n, bits, fails)
		sentinel := []ReachAnswer{{From: 7, Code: "x"}}
		back, err := DecodeReachResponseInto(slices.Clone(sentinel), pairs, resp[4:])
		if err != nil || !slices.Equal(back[:1], sentinel) || !slices.Equal(back[1:], answers) || string(resp[:4]) != "kept" {
			t.Fatalf("n=%d: response round trip: %v\n got %+v\nwant %+v", n, err, back, answers)
		}
	}
}

// TestReachBits: Reset sizes and clears whatever the buffer held, Set
// and Get agree, and the layout is the documented one.
func TestReachBits(t *testing.T) {
	b := ReachBits(bytes.Repeat([]byte{0xff}, 40))
	for _, n := range []int{0, 1, 8, 9, 64, 65, 300} {
		b = b.Reset(n)
		if len(b) != (n+7)/8 || bytes.ContainsFunc(b, func(r rune) bool { return r != 0 }) {
			t.Fatalf("Reset(%d) = %x", n, []byte(b))
		}
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
		for i := range n {
			if b.Get(i) != (i%3 == 0) {
				t.Fatalf("n=%d: bit %d = %v", n, i, b.Get(i))
			}
		}
	}
	b = b.Reset(10)
	b.Set(0)
	b.Set(9)
	if !bytes.Equal(b, []byte{0x01, 0x02}) {
		t.Fatalf("pairs 0 and 9 of 10 set: % x, want 01 02", []byte(b))
	}
}

// TestReachDocExample pins the hexdump in docs/API.md, "Batch
// reachability": three pairs, the last one naming a vertex that is not
// labeled.
func TestReachDocExample(t *testing.T) {
	pairs := []ReachPair{{From: 0, To: 5}, {From: 5, To: 0}, {From: 0, To: 300}}
	req := AppendReachRequest(nil, pairs)
	if want := []byte{0x03, 0x00, 0x0a, 0x0a, 0x00, 0x00, 0xd8, 0x04}; !bytes.Equal(req, want) {
		t.Fatalf("request % x, docs say % x", req, want)
	}
	answers := []ReachAnswer{
		{From: 0, To: 5, Reachable: true},
		{From: 5, To: 0},
		{From: 0, To: 300, Code: CodeVertexNotLabeled, Error: "vertex 300 not labeled yet"},
	}
	bits, fails := reachParts(answers)
	resp := AppendReachResponse(nil, len(pairs), bits, fails)
	want := append([]byte{0x03, 0x01, 0x01, 0x02, 0x12}, "vertex_not_labeled"...)
	want = append(append(want, 0x1a), "vertex 300 not labeled yet"...)
	if !bytes.Equal(resp, want) {
		t.Fatalf("response % x, docs say % x", resp, want)
	}
	got, err := DecodeReachResponseInto(nil, pairs, resp)
	if err != nil || !slices.Equal(got, answers) {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeReachRequestRefuses: every way a request body can be wrong
// is an error naming it, and the caller's pairs come back untouched.
func TestDecodeReachRequestRefuses(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 11)
	for _, c := range []struct {
		name, want string
		body       []byte
	}{
		{"empty", "varint", nil},
		{"count truncated", "varint", []byte{0x80}},
		{"count overlong", "varint", overlong},
		{"count past the bytes", "only", uvarints(3, 0, 0, 0, 0)},
		{"forged count", "only", uvarints(1 << 62)},
		{"over the cap", "exceeds the 4096-pair cap", append(uvarints(MaxReachPairs+1), make([]byte, 2*(MaxReachPairs+1))...)},
		{"pair truncated", "varint", append(uvarints(2, 0, 0, 0), 0x80)},
		{"from past int32", "32 bits", append(uvarints(1), append(binary.AppendVarint(nil, math.MaxInt32+1), 0)...)},
		{"to before int32", "32 bits", append(uvarints(1, 0), binary.AppendVarint(nil, math.MinInt32-1)...)},
		{"id overlong", "varint", append(uvarints(1), append(overlong, 0)...)},
		{"trailing", "trailing", uvarints(1, 2, 4, 0)},
		{"trailing after none", "trailing", uvarints(0, 0)},
	} {
		dst := []ReachPair{{From: 1, To: 2}}
		got, err := DecodeReachRequestInto(dst, c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one about %q", c.name, err, c.want)
		}
		if len(got) != 1 || got[0] != (ReachPair{From: 1, To: 2}) {
			t.Errorf("%s: dst came back as %v", c.name, got)
		}
	}
}

// TestDecodeReachResponseRefuses is the same for the response, against
// a request for ten pairs.
func TestDecodeReachResponseRefuses(t *testing.T) {
	pairs := make([]ReachPair, 10)
	fail := func(idx uint64, code, msg string) []byte {
		b := uvarints(idx, uint64(len(code)))
		b = append(b, code...)
		return append(append(b, byte(len(msg))), msg...)
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	head := []byte{10, 0x00, 0x00} // ten answers, none reachable
	for _, c := range []struct {
		name, want string
		body       []byte
	}{
		{"empty", "varint", nil},
		{"fewer answers", "9 answers for 10 pairs", []byte{9, 0, 0, 0}},
		{"more answers", "11 answers for 10 pairs", []byte{11, 0, 0, 0}},
		{"forged answer count", "answers for 10 pairs", uvarints(1 << 60)},
		{"bitmap truncated", "only", []byte{10, 0xff}},
		{"padding bits", "padding", []byte{10, 0xff, 0x07, 0}},
		{"no failure count", "varint", head},
		{"forged failure count", "only", cat(head, uvarints(1<<40))},
		{"more failures than pairs", "failures for 10 pairs", cat(head, []byte{11}, make([]byte, 33))},
		{"failure truncated", "only", cat(head, []byte{1}, fail(3, "c", "m")[:3], []byte{9})},
		{"index past n", "failure index 10", cat(head, []byte{1}, fail(10, "c", "m"))},
		{"index repeated", "failure index 3 after 3", cat(head, []byte{2}, fail(3, "c", "m"), fail(3, "c", "m"))},
		{"index descending", "failure index 2 after 3", cat(head, []byte{2}, fail(3, "c", "m"), fail(2, "c", "m"))},
		{"empty code", "no error code", cat(head, []byte{1}, fail(3, "", "m"))},
		{"answered and failed", "both answered and failed", cat([]byte{10, 0x08, 0x00, 1}, fail(3, "c", "m"))},
		{"code length past the body", "only", cat(head, []byte{1}, uvarints(3, 1<<50), []byte("cm"))},
		{"trailing", "trailing", cat(head, []byte{0, 0})},
	} {
		dst := []ReachAnswer{{From: 1, Code: "kept"}}
		got, err := DecodeReachResponseInto(dst, pairs, c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one about %q", c.name, err, c.want)
		}
		if len(got) != 1 || got[0] != (ReachAnswer{From: 1, Code: "kept"}) {
			t.Errorf("%s: answers came back as %+v", c.name, got)
		}
	}
	// The same head with a well-formed failure is fine.
	if _, err := DecodeReachResponseInto(nil, pairs, cat(head, []byte{2}, fail(0, "c", ""), fail(9, "c", "m"))); err != nil {
		t.Fatal(err)
	}
}
