package service_test

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"wfreach/client"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// TestIngestFormsRestoreAlike: one event stream sent three ways —
// Session.Append, the JSON route and the binary SDK — leaves logs of
// the same records: the two wire routes the same bytes, one frame per
// batch, and Session.Append those records one frame each. A restart
// that relabels each from its log alone yields byte-identical labels
// whose answers are breadth-first search on the run, for every grammar
// of the corpus.
func TestIngestFormsRestoreAlike(t *testing.T) {
	ctx := context.Background()
	forms := []string{"append", "json", "binary"}
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
		for i, ev := range events {
			wire[i] = client.FromRun(ev)
		}
		for lo := 0; lo < len(events); lo += 256 {
			hi := min(lo+256, len(events))
			if _, err := sessions["append"].Append(events[lo:hi]); err != nil {
				t.Fatalf("%s: Append [%d,%d): %v", name, lo, hi, err)
			}
			if _, err := c.Ingest(ctx, "json", wire[lo:hi]); err != nil {
				t.Fatalf("%s: JSON [%d,%d): %v", name, lo, hi, err)
			}
			if _, err := c.IngestFrames(ctx, "binary", wire[lo:hi]); err != nil {
				t.Fatalf("%s: binary [%d,%d): %v", name, lo, hi, err)
			}
		}
		srv.Close()
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}

		logs := make(map[string][]byte)
		var records [][]byte // the append log's, one per frame
		for _, form := range forms {
			if logs[form], err = os.ReadFile(filepath.Join(dir, form, "events.wal")); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(logs["json"], logs["binary"]) {
			t.Fatalf("%s: the json log differs from the binary log", name)
		}
		fr := wal.NewFrameReader(bytes.NewReader(logs["append"]))
		for frame, err := fr.Next(); err == nil; frame, err = fr.Next() {
			records = append(records, bytes.Clone(frame[wal.FrameHeaderSize:]))
		}
		var batches [][]byte // the json log's payloads, one per batch
		fr = wal.NewFrameReader(bytes.NewReader(logs["json"]))
		for frame, err := fr.Next(); err == nil; frame, err = fr.Next() {
			batches = append(batches, bytes.Clone(frame[wal.FrameHeaderSize:]))
		}
		if len(records) != len(events) || len(batches) != (len(events)+255)/256 || !bytes.Equal(bytes.Join(records, nil), bytes.Join(batches, nil)) {
			t.Fatalf("%s: the append log's %d records are not the json log's %d batches", name, len(records), len(batches))
		}
		// With snapshots off, a restore relabels every session from its log.
		reg2, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer reg2.Close()
		if _, err := reg2.Restore(dir); err != nil {
			t.Fatal(err)
		}
		var want map[int32][]byte
		rng := rand.New(rand.NewSource(int64(len(events))))
		for _, form := range forms {
			s, _ := reg2.Get(form)
			got := service.StoreBytes(s)
			if len(got) != len(events) {
				t.Fatalf("%s: the restored %s session holds %d labels of %d", name, form, len(got), len(events))
			}
			if want == nil {
				want = got
			} else if !maps.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: the restored %s session's labels differ from the %s session's", name, form, forms[0])
			}
			for range 2000 {
				v, w := events[rng.Intn(len(events))].V, events[rng.Intn(len(events))].V
				if got, err := s.Reach(v, w); err != nil || got != r.Reaches(v, w) {
					t.Fatalf("%s: %s session says reach(%d,%d) = %v, %v; breadth-first search says %v", name, form, v, w, got, err, r.Reaches(v, w))
				}
			}
		}
	})
}
