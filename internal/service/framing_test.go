package service_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"wfreach/client"
	"wfreach/internal/integrity"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// TestChainIsFramingInvariant is the chain's definition held against the
// service: one event stream in uneven batches goes in three ways —
// Session.Append, AppendRecords with every record teed as a frame of
// its own (the framing earlier builds logged), and the binary SDK. The
// three sessions report one chain head at every batch boundary; the
// Session.Append and SDK logs are byte for byte one log, one frame per
// batch, while the teed log holds one frame per event; and each log
// restores to the head, the vertex count and the answers — breadth-first
// search on the run — the others restore to, for every grammar of the
// corpus.
func TestChainIsFramingInvariant(t *testing.T) {
	ctx := context.Background()
	forms := []string{"append", "legacy", "sdk"}
	batches := []int{1, 7, 256, 3, 100, 64}
	service.ForEachReachCase(t, func(name string, g *spec.Grammar, events []run.Event, r *run.Run) {
		dir := t.TempDir()
		reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		sessions := make(map[string]*service.Session)
		for _, form := range forms {
			if sessions[form], err = reg.Create(form, g, service.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(service.NewHandler(reg))
		c := client.New(srv.URL, client.WithRetry(0, 0))
		wire := make([]client.Event, len(events))
		recs := make([]wal.Record, len(events))
		frames := make([][]byte, len(events))
		for i, ev := range events {
			wire[i], recs[i] = client.FromRun(ev), wal.RefRecord(ev)
			if frames[i], err = wal.AppendFrame(nil, recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		nbatches := 0
		for lo, k := 0, 0; lo < len(events); lo, k = lo+batches[k%len(batches)], k+1 {
			hi := min(lo+batches[k%len(batches)], len(events))
			if n, err := sessions["append"].Append(events[lo:hi]); err != nil || n != hi-lo {
				t.Fatalf("%s: Append [%d,%d): %d, %v", name, lo, hi, n, err)
			}
			if n, err := sessions["legacy"].AppendRecords(recs[lo:hi], frames[lo:hi]); err != nil || n != hi-lo {
				t.Fatalf("%s: AppendRecords [%d,%d): %d, %v", name, lo, hi, n, err)
			}
			if _, err := c.IngestFrames(ctx, "sdk", wire[lo:hi]); err != nil {
				t.Fatalf("%s: IngestFrames [%d,%d): %v", name, lo, hi, err)
			}
			seq, head, _ := sessions[forms[0]].ChainState()
			for _, form := range forms {
				if fseq, fhead, ok := sessions[form].ChainState(); !ok || fseq != int64(hi) || fhead != head {
					t.Fatalf("%s: after event %d the %s session's chain is (%d, %s, %v), the %s session's (%d, %s)", name, hi, form, fseq, fhead, ok, forms[0], seq, head)
				}
			}
			nbatches++
		}
		_, head, _ := sessions["append"].ChainState()
		srv.Close()
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}

		logs := make(map[string][]byte)
		for _, form := range forms {
			if logs[form], err = os.ReadFile(filepath.Join(dir, form, "events.wal")); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(logs["append"], logs["sdk"]) {
			t.Fatalf("%s: the Session.Append log differs from the SDK's", name)
		}
		for form, want := range map[string]int{"append": nbatches, "legacy": len(events)} {
			n := 0
			fr := wal.NewFrameReader(bytes.NewReader(logs[form]))
			for _, err := fr.Next(); err == nil; _, err = fr.Next() {
				n++
			}
			if n != want {
				t.Fatalf("%s: the %s log holds %d frames, want %d", name, form, n, want)
			}
		}

		// With snapshots off, a restore relabels and rehashes every log.
		reg2, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer reg2.Close()
		if _, err := reg2.Restore(dir); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(events))))
		for _, form := range forms {
			s, _ := reg2.Get(form)
			if seq, got, ok := s.ChainState(); !ok || seq != int64(len(events)) || got != head {
				t.Fatalf("%s: the restored %s session's chain is (%d, %s, %v), want (%d, %s)", name, form, seq, got, ok, len(events), head)
			}
			if s.Vertices() != int64(len(events)) {
				t.Fatalf("%s: the restored %s session holds %d vertices of %d", name, form, s.Vertices(), len(events))
			}
			for range 1000 {
				v, w := events[rng.Intn(len(events))].V, events[rng.Intn(len(events))].V
				if got, err := s.Reach(v, w); err != nil || got != r.Reaches(v, w) {
					t.Fatalf("%s: %s session says reach(%d,%d) = %v, %v; breadth-first search says %v", name, form, v, w, got, err, r.Reaches(v, w))
				}
			}
		}
		if head == (integrity.Head{}) {
			t.Fatalf("%s: a chain over %d events is at genesis", name, len(events))
		}
	})
}
