package wfxml_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []*spec.Spec{
		wfspecs.RunningExample(),
		wfspecs.BioAID(),
		wfspecs.BioAIDNonRecursive(),
		wfspecs.Fig6(),
		wfspecs.Fig12(),
	} {
		var buf bytes.Buffer
		if err := wfxml.EncodeSpec(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := wfxml.DecodeSpec(&buf)
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, buf.String())
		}
		if got.String() != s.String() {
			t.Fatalf("spec round trip mismatch:\n in: %s\nout: %s", s, got)
		}
		// Graph-by-graph structural equality.
		a, b := s.Graphs(), got.Graphs()
		if len(a) != len(b) {
			t.Fatal("graph count mismatch")
		}
		for i := range a {
			if a[i].G.String() != b[i].G.String() || a[i].Label != b[i].Label || a[i].Owner != b[i].Owner {
				t.Fatalf("graph %d mismatch", i)
			}
		}
	}
}

func TestSpecXMLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, wfspecs.RunningExample()); err != nil {
		t.Fatal(err)
	}
	x := buf.String()
	for _, want := range []string{"<specification>", `kind="loop"`, `kind="fork"`, `label="g0"`, `owner="A"`} {
		if !strings.Contains(x, want) {
			t.Fatalf("XML missing %q:\n%s", want, x)
		}
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not xml at all",
		"unknownKind": `<specification><module name="A" kind="weird"/><graph label="g0"><vertex id="0" name="s"/><vertex id="1" name="t"/><edge from="0" to="1"/></graph></specification>`,
		"nonDense":    `<specification><graph label="g0"><vertex id="5" name="s"/></graph></specification>`,
		"cycle":       `<specification><graph label="g0"><vertex id="0" name="s"/><vertex id="1" name="t"/><edge from="0" to="1"/><edge from="1" to="0"/></graph></specification>`,
		"ownerFirst":  `<specification><graph label="g0" owner="A"><vertex id="0" name="s"/><vertex id="1" name="t"/><edge from="0" to="1"/></graph></specification>`,
	}
	var over bytes.Buffer
	if err := wfxml.EncodeSpec(&over, wfspecs.RunningExample()); err != nil {
		t.Fatal(err)
	}
	cases["overCap"] = over.String() + strings.Repeat(" ", wfxml.MaxSpecBytes)
	for name, in := range cases {
		if _, err := wfxml.DecodeSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}
}

func TestRunRoundTrip(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 300, Seed: 6})
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := wfxml.DecodeRun(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.String() != r.Graph.String() {
		t.Fatal("run graph round trip mismatch")
	}
	if len(got.Steps) != len(r.Steps) {
		t.Fatal("derivation length mismatch")
	}
	for v := 0; v < r.Graph.NumVertices(); v++ {
		if got.SpecOf[v] != r.SpecOf[v] {
			t.Fatalf("spec mapping mismatch at %d", v)
		}
	}
}

func TestDecodeRunWrongGrammar(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 100, Seed: 2})
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r); err != nil {
		t.Fatal(err)
	}
	other := spec.MustCompile(wfspecs.Fig12())
	if _, err := wfxml.DecodeRun(&buf, other); err == nil {
		t.Fatal("decoding a run against the wrong grammar must fail")
	}
}

func TestDecodeRunGarbage(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	if _, err := wfxml.DecodeRun(strings.NewReader("nope"), g); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecodeRunChecksStepShapeFirst: a step is checked against its id
// rows and its implementation before it is applied, so a file cannot
// make the replay build copies it does not list. The first case asks
// for 10^8 copies of a three-vertex loop body with no id rows; checked
// after Apply, it allocated gigabytes before failing.
func TestDecodeRunChecksStepShapeFirst(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	row := `<copy><v>3</v><v>4</v><v>5</v></copy>`
	for _, c := range []struct{ what, step string }{
		{"copies without rows", `<step target="1" impl="1" copies="100000000"></step>`},
		{"more copies than rows", `<step target="1" impl="1" copies="2">` + row + `</step>`},
		{"a short row", `<step target="1" impl="1" copies="1"><copy><v>3</v></copy></step>`},
		{"an implementation the grammar lacks", `<step target="1" impl="99" copies="1">` + row + `</step>`},
		{"a negative implementation", `<step target="1" impl="-1" copies="1">` + row + `</step>`},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := wfxml.DecodeRun(strings.NewReader(`<run>`+c.step+`</run>`), g)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.what)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: allocated %d B before failing", c.what, b)
		}
	}
}
