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
// and Pull from a primary over HTTP into a durable and into a memory
// registry, cut at half. Each copy resumes from its own Vertices()+1 —
// the durable one after a restart, through a fresh Adopt seeded from its
// own log — and ends with the source's chain head and the source's
// labels: the same answers and label bits, and for the durable copy a
// byte-identical snapshot file.
func TestCopyReproducesTheSource(t *testing.T) {
	p := newEnv(t)
	defer p.close()
	ws := makeWorkloads(t, 400)
	for _, w := range ws {
		if _, err := p.reg.Create(w.name, w.g, w.cfg); err != nil {
			t.Fatal(err)
		}
	}
	half := func(n int) int { return n / 2 }
	ingest(t, p.reg, ws, func(int) int { return 0 }, half)

	ctx := context.Background()
	src := client.New(p.srv.URL)
	durDir := t.TempDir()
	durable := openRegistry(t, durDir)
	targets := []struct {
		name   string
		reg    *service.Registry
		copies map[string]*Copy
	}{
		{name: "durable", reg: durable, copies: map[string]*Copy{}},
		{name: "memory", reg: service.NewRegistry(), copies: map[string]*Copy{}},
	}

	// pull pulls every session into the target and checks the applied
	// count and the head against the source at that point.
	pull := func(name string, copies map[string]*Copy, want func(int) int) {
		t.Helper()
		for _, w := range ws {
			cp := copies[w.name]
			before := cp.Session().Vertices()
			n, err := cp.Pull(ctx, false, nil)
			if err != nil {
				t.Fatalf("%s/%s: pull: %v", name, w.name, err)
			}
			if got := before + n; n == 0 || got != int64(want(len(w.events))) || cp.Session().Vertices() != got {
				t.Fatalf("%s/%s: pulled %d after %d, want to reach %d", name, w.name, n, before, want(len(w.events)))
			}
			ps, _ := p.reg.Get(w.name)
			wseq, whead, _ := ps.ChainState()
			if seq, head, ok := cp.Head(); !ok || seq != wseq || head != whead {
				t.Fatalf("%s/%s: Head() = (%d, %s, %v), source ChainState = (%d, %s)", name, w.name, seq, head, ok, wseq, whead)
			}
		}
	}
	adopt := func(reg *service.Registry, copies map[string]*Copy) {
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
	for _, tg := range targets {
		adopt(tg.reg, tg.copies)
		pull(tg.name, tg.copies, half)
	}

	// The rest of every stream lands on the source. The durable target
	// restarts and adopts its own copies again; the memory one keeps its.
	ingest(t, p.reg, ws, half, func(n int) int { return n })
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	durable = openRegistry(t, durDir)
	targets[0].reg = durable
	adopt(durable, targets[0].copies)
	for _, tg := range targets {
		pull(tg.name, tg.copies, func(n int) int { return n })
	}

	for _, tg := range targets {
		for _, w := range ws {
			ps, _ := p.reg.Get(w.name)
			cs := tg.copies[w.name].Session()
			if pst, cst := ps.Stats(), cs.Stats(); cst.LabelBits != pst.LabelBits || cst.ID != pst.ID {
				t.Fatalf("%s/%s: copy stats %+v, source %+v", tg.name, w.name, cst, pst)
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
					t.Fatalf("%s/%s: pair %+v: copy %+v, source %+v", tg.name, w.name, pairs[i], got[i], want[i])
				}
			}
		}
	}

	// Label bytes: closing writes each durable session's snapshot, a pure
	// function of its labels and its log.
	if err := durable.Close(); err != nil {
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
		got, err := os.ReadFile(filepath.Join(durDir, w.name, "labels.snap"))
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
	if _, err := p.reg.Create(w.name, w.g, w.cfg); err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry()
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
