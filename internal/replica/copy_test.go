package replica

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/service"
)

// TestCopyReproducesTheSource drives the one copy path directly: Adopt
// and Pull from a primary over HTTP into a registry, cut at half. The
// copy restarts and resumes from its own Vertices()+1, through a fresh
// Adopt of what its own log restored, and ends with the source's chain
// head in its own log and the source's labels: the same answers and
// label bits, and a byte-identical snapshot file.
func TestCopyReproducesTheSource(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 400)
	for _, w := range ws {
		if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	half := func(n int) int { return n / 2 }
	ingest(t, p.reg, ws, func(int) int { return 0 }, half)

	ctx := context.Background()
	src := client.New(p.srv.URL)
	dir := t.TempDir()
	reg := openRegistry(t, dir)
	copies := map[string]*Copy{}

	// pull pulls every session into the copy and checks the applied
	// count and the head of the copy's own log against the source's.
	pull := func(want func(int) int) {
		t.Helper()
		for _, w := range ws {
			cp := copies[w.name]
			before := cp.Session().Vertices()
			n, err := cp.Pull(ctx, false, nil)
			if err != nil {
				t.Fatalf("%s: pull: %v", w.name, err)
			}
			if got := before + n; n == 0 || got != int64(want(len(w.events))) || cp.Session().Vertices() != got {
				t.Fatalf("%s: pulled %d after %d, want to reach %d", w.name, n, before, want(len(w.events)))
			}
			ps, _ := p.reg.Get(w.name)
			wseq, whead, _ := ps.ChainState()
			if seq, head, ok := cp.Session().ChainState(); !ok || seq != wseq || head != whead {
				t.Fatalf("%s: the copy's log is at (%d, %s, %v), the source's at (%d, %s)", w.name, seq, head, ok, wseq, whead)
			}
		}
	}
	adopt := func() {
		t.Helper()
		for _, w := range ws {
			st, err := src.Session(ctx, w.name)
			if err != nil {
				t.Fatal(err)
			}
			if copies[w.name], err = Adopt(ctx, reg, src, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	adopt()
	pull(half)

	// The rest of every stream lands on the source. The copy restarts
	// and adopts its own sessions again.
	ingest(t, p.reg, ws, half, func(n int) int { return n })
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg = openRegistry(t, dir)
	adopt()
	pull(func(n int) int { return n })

	for _, w := range ws {
		ps, _ := p.reg.Get(w.name)
		cs := copies[w.name].Session()
		if pst, cst := ps.Stats(), cs.Stats(); cst.LabelBits != pst.LabelBits || cst.ID != pst.ID {
			t.Fatalf("%s: copy stats %+v, source %+v", w.name, cst, pst)
		}
		var pairs []api.ReachPair
		for i := 0; i < len(w.events); i += 1 + len(w.events)/40 {
			for j := 0; j < len(w.events); j += 1 + len(w.events)/40 {
				pairs = append(pairs, api.ReachPair{From: int32(w.events[i].V), To: int32(w.events[j].V)})
			}
		}
		want, got := ps.ReachBatch(pairs), cs.ReachBatch(pairs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %+v: copy %+v, source %+v", w.name, pairs[i], got[i], want[i])
			}
		}
	}

	// Label bytes: closing writes each session's snapshot, a pure
	// function of its labels and its log.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.reg.Close(); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		want, err := os.ReadFile(filepath.Join(p.dir, w.name, "labels.snap"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, w.name, "labels.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the copy's snapshot (%d bytes) differs from the source's (%d bytes)", w.name, len(got), len(want))
		}
	}
}

// TestAdoptRefusesAnotherIdentity: a local session under the source's
// name but with another identity is a different session. Adopt refuses
// it with a typed error and leaves it as it was — its events, its
// identity and its seal.
func TestAdoptRefusesAnotherIdentity(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	w := makeWorkloads(t, 200)[0]
	if _, err := p.reg.Create(w.name, w.g, service.Config{}); err != nil {
		t.Fatal(err)
	}
	reg := openRegistry(t, t.TempDir())
	local, err := reg.Create(w.name, w.g, service.Config{ID: "someone-else"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Append(w.events[:10]); err != nil {
		t.Fatal(err)
	}
	local.Seal("http://elsewhere")

	ctx := context.Background()
	src := client.New(p.srv.URL)
	st, err := src.Session(ctx, w.name)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Adopt(ctx, reg, src, st)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeSessionExists {
		t.Fatalf("Adopt over another identity = %v, want %s", err, api.CodeSessionExists)
	}
	if s, _ := reg.Get(w.name); s != local || local.ID() != "someone-else" || local.Vertices() != 10 {
		t.Fatalf("refused copy changed: id %q, %d vertices", local.ID(), local.Vertices())
	}
	if _, err := local.Append(w.events[10:11]); !errors.As(err, &ae) || ae.Code != api.CodeReadOnly {
		t.Fatalf("refused copy lost its seal: append = %v", err)
	}
}

// TestAdoptRefusesAnUncheckableCopy: a non-empty local session under
// the source's identity whose own log no longer has a chain covering it
// — the log was closed — could never be checked against the source.
// Adopt refuses it with a typed error and leaves it as it was.
func TestAdoptRefusesAnUncheckableCopy(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	w := makeWorkloads(t, 200)[0]
	ps, err := p.reg.Create(w.name, w.g, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := openRegistry(t, t.TempDir())
	local, err := reg.Create(w.name, w.g, service.Config{ID: ps.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Append(w.events[:10]); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil { // the session stays, its log goes
		t.Fatal(err)
	}

	ctx := context.Background()
	src := client.New(p.srv.URL)
	st, err := src.Session(ctx, w.name)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Adopt(ctx, reg, src, st)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotDurable {
		t.Fatalf("Adopt over a chainless copy = %v, want %s", err, api.CodeNotDurable)
	}
	if s, _ := reg.Get(w.name); s != local || local.Vertices() != 10 {
		t.Fatalf("refused copy changed: %d vertices", local.Vertices())
	}
	if _, err := local.Append(w.events[10:11]); err == nil {
		t.Fatal("refused copy took an event")
	}
}

// openRegistry opens (and restores) a durable registry over dir.
func openRegistry(t *testing.T, dir string) *service.Registry {
	t.Helper()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Restore(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reg.Close() })
	return reg
}
