package wfreach_test

import (
	"fmt"

	"wfreach"
)

// ExampleGrammar_Productions renders the workflow grammar of the
// running example (compare the paper's Figure 4).
func ExampleGrammar_Productions() {
	g := wfreach.MustCompile(wfreach.RunningExample())
	for _, p := range g.Productions() {
		fmt.Println(p)
	}
	// Output:
	// A := h3 | h4
	// B := h5
	// C := h6
	// F := h2 | P(h,h) | …
	// L := h1 | S(h,h) | …
}

// ExampleNewLabelCodec shows the storage path: encode a label to
// bytes, measure it, and decode it back.
func ExampleNewLabelCodec() {
	g := wfreach.MustCompile(wfreach.RunningExample())
	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 50, Seed: 2})
	d, err := wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated)
	if err != nil {
		panic(err)
	}
	codec := wfreach.NewLabelCodec(g)
	l := d.MustLabel(r.Graph.Sources()[0])
	enc := codec.Encode(l)
	dec, err := codec.Decode(enc)
	if err != nil {
		panic(err)
	}
	fmt.Println("round trip:", dec.Equal(l))
	fmt.Println("accounting bits:", codec.BitLen(l))
	// Output:
	// round trip: true
	// accounting bits: 1
}
