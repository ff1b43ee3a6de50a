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
// negative int32). The input is the fuzzer's label, with index
// 1111740226, in today's encoding (order-0 index codes): it must decode
// to exactly that label and re-encode to exactly these bytes, in finite
// time.
func TestRegressionWideIndexRoundTrip(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	c := label.NewCodec(g)
	data := []byte("pc\x10\x00\x00\x00!!\xe7\xa1\xa0\x03\x0f\x90\x00\x00\n\x87\xfa?")
	want := label.Label{Entries: []label.Entry{
		{Index: 11, Type: label.N, Skl: ref(3, 3)},
		{Index: 1111740226, Type: label.L, Skl: spec.NoRef},
		{Index: 3133, Type: label.L, Skl: spec.NoRef},
		{Index: 22085446, Type: label.L, Skl: spec.NoRef},
		{Index: 0, Type: label.R, Skl: spec.NoRef},
	}}
	l, err := c.Decode(data)
	if err != nil || !l.Equal(want) {
		t.Fatalf("seed input decodes to %s, %v; want %s", l, err, want)
	}
	if enc := c.Encode(l); string(enc) != string(data) {
		t.Fatalf("re-encodes to %q", enc)
	}
	// Direct check of the widest legal index.
	wide := label.Label{}.Append(label.Entry{Index: 1<<31 - 1, Type: label.L, Skl: spec.NoRef})
	w2, err := c.Decode(c.Encode(wide))
	if err != nil || !w2.Equal(wide) {
		t.Fatalf("max-index round trip failed: %v", err)
	}
	if got := c.BitLen(wide); got != 2+31 {
		t.Fatalf("BitLen(max index) = %d, want 33", got)
	}
}
