package wfxml_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"os"
	"strings"
	"testing"
	"unicode/utf8"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// builtins are the specifications the service offers by name.
func builtins() []*spec.Spec {
	return []*spec.Spec{wfspecs.Agent(), wfspecs.RunningExample(), wfspecs.BioAID(),
		wfspecs.BioAIDNonRecursive(), wfspecs.Fig6(), wfspecs.Fig12()}
}

// goldenSpec is the spec.xml of the committed v1 data directory: BioAID
// as the service has always written it.
const goldenSpec = "../service/testdata/golden-v1/golden/spec.xml"

// refused pairs each construct DecodeSpec refuses while encoding/xml
// reads it with the words DecodeSpec's error names it by and a test
// for whether a document holds it. EncodeSpec writes none of them.
var refused = []struct {
	named string
	in    func(doc string) bool
}{
	{"directives", func(doc string) bool { return strings.Contains(doc, "<!") }},
	{"processing instructions", func(doc string) bool { return strings.Contains(doc, "<?") }},
	{"namespace prefixes", func(doc string) bool { return strings.Contains(doc, ":") }},
	{"non-ASCII names", func(doc string) bool {
		return strings.ContainsFunc(doc, func(r rune) bool { return r >= utf8.RuneSelf })
	}},
	{"character data", hasText},
}

// hasText reports whether a document holds character data other than
// white space, as written: a reference to a space is not white space.
func hasText(doc string) bool {
	d := xml.NewDecoder(strings.NewReader(doc))
	for off := int64(0); ; off = d.InputOffset() {
		tok, err := d.RawToken()
		if err != nil {
			return false
		}
		if _, ok := tok.(xml.CharData); ok && strings.Trim(doc[off:d.InputOffset()], " \t\r\n") != "" {
			return true
		}
	}
}

// specText is everything a decoded specification holds: its productions
// and each graph's label, owner, vertex names and edges.
func specText(s *spec.Spec) string {
	var b strings.Builder
	b.WriteString(s.String())
	for _, ng := range s.Graphs() {
		fmt.Fprintf(&b, "\n%q %q %s", ng.Label, ng.Owner, ng.G)
	}
	return b.String()
}

// FuzzDecodeSpec: arbitrary bytes must never panic the specification
// decoder, and it agrees with the reference decoder — encoding/xml's
// Decode into the on-disk structs, which it replaced. Whatever the
// scanner accepts the reference accepts as the same specification;
// whatever the reference accepts and the scanner refuses holds one of
// the refused constructs, and the scanner's error names it. Anything
// that decodes is a valid spec that re-encodes.
func FuzzDecodeSpec(f *testing.F) {
	golden, err := os.ReadFile(goldenSpec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	for _, s := range builtins() {
		var buf bytes.Buffer
		if err := wfxml.EncodeSpec(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	const g0 = `<vertex id="0" name="s"/><vertex id="1" name="t"/><edge from="0" to="1"/>`
	for _, seed := range []string{
		"<specification></specification>",
		"not xml",
		`<specification><graph label="g0"><vertex id="0" name="s"/></graph></specification>`,
		// single quotes, references in names, CRs in values
		`<specification><graph label='g0'><vertex id='0' name='s&amp;&lt;&#x41;&#66;&quot;&apos;&gt;'/><vertex id="1" name="t&#xD;&#13;x` + "\r\n" + `y"/><edge from="0" to="1"/></graph></specification>`,
		// missing attributes: the reference reads 0 or ""
		`<specification><graph><vertex name="s"/><vertex id="1"/><edge to="1"/></graph></specification>`,
		// unknown elements and attributes, skipped
		`<specification version="2"><note a="b"><graph label="x"/></note><graph label="g0" colour="red">` + g0 + `<vertex-extra/></graph><module name="q" kind="atomic" extra="1"><vertex id="9"/></module> <!-- a note --> </specification>`,
		// names beyond ASCII, refused, and a bad one refused by both
		`<specification><graph label="g0"><é·/>` + g0 + `<a·/></graph></specification>`,
		`<specification><graph label="g0"><·a/>` + g0 + `</graph></specification>`,
		// white space around ints, a sign, an empty int
		`<specification><graph label="g0"><vertex id=" 0 " name="s"/><vertex id="+1" name="t"/><edge from="` + "\t0\n" + `" to=" 1"/></graph></specification>`,
		`<specification><graph label="g0"><vertex id="" name="s"/><vertex id="1" name="t"/><edge from="" to="1"/></graph></specification>`,
		// a declaration and comments, read; a BOM, text and other
		// processing instructions, refused
		"<?xml version='1.0' encoding=\"utf-8\" ?>\n<!-- BioAID -->\n<specification><graph label=\"g0\"><!---->" + g0 + "</graph></specification><<<",
		"\ufeff<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- BioAID -->\n<specification><?pi data?><graph label=\"g0\"><!---->" + g0 + "</graph></specification><<<",
		// text, though only a referenced space
		`<specification>&#32;<graph label="g0">` + g0 + `</graph></specification>`,
		// one broken rule each, refused by both decoders
		`<specification><graph label="g0">` + g0 + `]]></graph></specification>`,
		`<specification><graph label="g0 &nbsp;">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0&#0;">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0` + "\xff" + `">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0"><!-- a -- b -->` + g0 + `</graph></specification>`,
		`<specification><graph label="g0"><1a/>` + g0 + `</graph></specification>`,
		`<specification><graph label="g0"><vertex id="0x0" name="s"/><vertex id="1" name="t"/><edge from="0" to="1"/></graph></specification>`,
		`<specification><graph label="g0"><vertex id="1" name="s"/><vertex id="0" name="t"/><edge from="0" to="1"/></graph></specification>`,
		`<specification><graph label="g0< b="c">` + g0 + `</graph></specification>`,
		`<specification><graph label="g<0">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0&#X41;">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0&#xFFFE;">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0">` + g0 + `</grph></specification>`,
		`<spec><graph label="g0">` + g0 + `</graph></spec>`,
		`<specification><graph label="g0">` + g0 + `</graph></specification><?xml version="1.1"?>`,
		`<specification><graph label="g0&#x110000;">` + g0 + `</graph></specification>`,
		`<?xml version="1.1"?><specification><graph label="g0">` + g0 + `</graph></specification>`,
		// the refused constructs
		`<!DOCTYPE specification><specification><graph label="g0">` + g0 + `</graph></specification>`,
		`<specification><graph label="g0"><![CDATA[x]]>` + g0 + `</graph></specification>`,
		`<w:specification xmlns:w="urn:wf"><graph label="g0">` + g0 + `</graph></w:specification>`,
		`<?xml version="1.0" encoding="ISO-8859-1"?><specification/>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		s, err := wfxml.DecodeSpec(strings.NewReader(data))
		ref, refErr := wfxml.ReferenceDecodeSpec(strings.NewReader(data))
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("the scanner accepts what the reference refuses (%v)", refErr)
		case err == nil && specText(s) != specText(ref):
			t.Fatalf("the scanner and the reference disagree:\n scanner: %s\nreference: %s", specText(s), specText(ref))
		case err != nil && refErr == nil:
			named := false
			for _, c := range refused {
				named = named || strings.Contains(err.Error(), c.named) && c.in(data)
			}
			if !named {
				t.Fatalf("the scanner refuses what the reference accepts, naming no refused construct: %v", err)
			}
		}
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
		if specText(s2) != specText(s) {
			t.Fatalf("round trip drift:\n in: %s\nout: %s", specText(s), specText(s2))
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
