package wfxml_test

import (
	"bytes"
	"strings"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// FuzzDecodeSpec: arbitrary bytes must never panic the specification
// decoder; anything that decodes must be a valid spec that re-encodes.
func FuzzDecodeSpec(f *testing.F) {
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, wfspecs.RunningExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	buf.Reset()
	if err := wfxml.EncodeSpec(&buf, wfspecs.Fig6()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("<specification></specification>")
	f.Add("not xml")
	f.Add(`<specification><graph label="g0"><vertex id="0" name="s"/></graph></specification>`)
	f.Fuzz(func(t *testing.T, data string) {
		s, err := wfxml.DecodeSpec(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := wfxml.EncodeSpec(&out, s); err != nil {
			t.Fatalf("decoded spec failed to re-encode: %v", err)
		}
		s2, err := wfxml.DecodeSpec(&out)
		if err != nil {
			t.Fatalf("re-encoded spec failed to decode: %v", err)
		}
		if s2.String() != s.String() {
			t.Fatalf("round trip drift:\n in: %s\nout: %s", s, s2)
		}
	})
}

// FuzzDecodeRun: arbitrary bytes must never panic the run decoder or
// make it build what the file does not list; anything that decodes
// re-encodes to a file that decodes to the same run.
func FuzzDecodeRun(f *testing.F) {
	g := spec.MustCompile(wfspecs.RunningExample())
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, gen.MustGenerate(g, gen.Options{TargetSize: 40, Seed: 3})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("<run></run>")
	f.Add("not xml")
	f.Add(`<run><step target="1" impl="1" copies="100000000"></step></run>`)
	f.Fuzz(func(t *testing.T, data string) {
		r, err := wfxml.DecodeRun(strings.NewReader(data), g)
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := wfxml.EncodeRun(&once, r); err != nil {
			t.Fatalf("decoded run failed to re-encode: %v", err)
		}
		r2, err := wfxml.DecodeRun(bytes.NewReader(once.Bytes()), g)
		if err != nil {
			t.Fatalf("re-encoded run failed to decode: %v", err)
		}
		if err := wfxml.EncodeRun(&twice, r2); err != nil {
			t.Fatalf("re-decoded run failed to re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip drift:\n in: %s\nout: %s", once.Bytes(), twice.Bytes())
		}
	})
}
