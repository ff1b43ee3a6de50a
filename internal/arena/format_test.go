package arena_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// The label format a snapshot of this Magic holds: the SHA-256 of the
// encoded labels the execution labeler issues, one after another, for
// two streams internal/gen pins (a BioAID execution and an agent trace).
// A snapshot stores labels as issued, so a change to how a label is
// numbered (core) or coded (label) changes a digest here, and it needs a
// new Magic with it: a file of the old labels must be ErrVersion, never
// mapped next to new ones. (A new Magic may also come with the same
// digests: WFSNAP10 changed only what its chain head means.)
const (
	pinnedMagic  = "WFSNAP10"
	pinnedBioAID = "9279e288fa6beeff41029d120f0829cdd102fbf887a276d4954071f6f31e9d58"
	pinnedAgent  = "06284352cc23e89a5a1b35edadd6425637014fdf1d350d0da4789b142e6e2f23"
)

// TestLabelFormatIsPinned holds labels and Magic together: both digests
// and the magic change in the same commit or not at all.
func TestLabelFormatIsPinned(t *testing.T) {
	if arena.Magic != pinnedMagic {
		t.Fatalf("Magic is %q, pinned %q: record the digests below under the new magic", arena.Magic, pinnedMagic)
	}
	g := spec.MustCompile(wfspecs.BioAID())
	evs, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 2048, Seed: 7, MaxCopies: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := labelDigest(t, g, evs); got != pinnedBioAID {
		t.Errorf("BioAID labels hash to %s, pinned %s: a new label format needs a new Magic", got, pinnedBioAID)
	}
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 6250, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := labelDigest(t, tr.Run.Grammar, tr.Events); got != pinnedAgent {
		t.Errorf("agent labels hash to %s, pinned %s: a new label format needs a new Magic", got, pinnedAgent)
	}
}

// labelDigest is the SHA-256 of the encodings of the labels evs are
// issued, each after its length as a uvarint (an encoding does not
// delimit itself), concatenated.
func labelDigest(t *testing.T, g *spec.Grammar, evs []run.Event) string {
	t.Helper()
	lab := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	c := label.NewCodec(g)
	h := sha256.New()
	for _, ev := range evs {
		l, err := lab.Insert(ev)
		if err != nil {
			t.Fatal(err)
		}
		enc := c.Encode(l)
		h.Write(binary.AppendUvarint(nil, uint64(len(enc))))
		h.Write(enc)
	}
	return hex.EncodeToString(h.Sum(nil))
}
