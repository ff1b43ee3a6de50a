package label_test

import (
	"testing"

	"wfreach/internal/label"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestRegressionWideIndexRoundTrip pins the fuzzer-found bug where an
// index needing 31 value bits sent the width computation into an
// int32-overflow infinite loop (`v >= 1<<w` promotes 1<<31 to a
// negative int32). The input carries the fuzzer's wide indexes —
// 1111740226, 3133 and 22085446 — on the copies and the chain member of
// a label of today's encoding (no root index, no entry count, slot ranks
// in truncated binary, a type only where A's and C's slots leave R or N
// open, a stop bit), which goes on to an s3 chain member: it must decode
// to exactly that label and re-encode to exactly these bytes, in finite
// time.
func TestRegressionWideIndexRoundTrip(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	c := label.NewCodec(g)
	data := []byte("\x00\x00\x00!!\xe7\xa9\x00b,\x00\x00\n\x87\xfaQ\xc1")
	want := label.Label{Entries: []label.Entry{
		{Index: 0, Type: label.N, Skl: ref(0, 1)},
		{Index: 0, Type: label.L, Skl: spec.NoRef},
		{Index: 1111740226, Type: label.N, Skl: ref(1, 1)},
		{Index: 0, Type: label.F, Skl: spec.NoRef},
		{Index: 3133, Type: label.N, Skl: ref(2, 1)},
		{Index: 0, Type: label.R, Skl: spec.NoRef},
		{Index: 22085446, Type: label.N, Skl: ref(3, 2)},
		{Index: 1, Type: label.R, Skl: spec.NoRef},
		{Index: 0, Type: label.N, Skl: ref(3, 0)},
	}}
	l, err := c.Decode(data)
	if err != nil || !l.Equal(want) {
		t.Fatalf("seed input decodes to %s, %v; want %s", l, err, want)
	}
	if enc := c.Encode(l); string(enc) != string(data) {
		t.Fatalf("re-encodes to %q", enc)
	}
	// Direct check of the widest legal index, on a loop copy.
	wide := label.Label{}.
		Append(label.Entry{Index: 0, Type: label.N, Skl: ref(0, 1)}).
		Append(label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}).
		Append(label.Entry{Index: 1<<31 - 1, Type: label.N, Skl: ref(1, 0)})
	w2, err := c.Decode(c.Encode(wide))
	if err != nil || !w2.Equal(wide) {
		t.Fatalf("max-index round trip failed: %v", err)
	}
	if got := c.BitLen(wide); got != 1+31+1 {
		t.Fatalf("BitLen(max index) = %d, want 33", got)
	}
}
