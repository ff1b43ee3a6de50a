package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// postEvents posts a batch to a session's JSON events route, the form
// curl speaks; the SDK ingests binary frames only.
func postEvents(url, session string, events []client.Event) error {
	body, err := json.Marshal(api.EventsRequest{Events: events})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/sessions/"+session+"/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // read whole, so the connection is reused
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, raw)
	}
	return err
}

// TestIngestFormsRestoreAlike: one event stream sent three ways —
// Session.Append, the JSON route and the binary SDK — leaves three
// byte-identical logs, one frame per batch. A restart that relabels
// each from its log alone yields byte-identical labels whose answers
// are breadth-first search on the run, for every grammar of the corpus.
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
			if err := postEvents(srv.URL, "json", wire[lo:hi]); err != nil {
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
		for _, form := range forms {
			if logs[form], err = os.ReadFile(filepath.Join(dir, form, "events.wal")); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(logs[form], logs[forms[0]]) {
				t.Fatalf("%s: the %s log differs from the %s log", name, form, forms[0])
			}
		}
		frames := 0
		fr := wal.NewFrameReader(bytes.NewReader(logs["append"]))
		for _, err := fr.Next(); err == nil; _, err = fr.Next() {
			frames++
		}
		if frames != (len(events)+255)/256 {
			t.Fatalf("%s: %d batches logged as %d frames", name, (len(events)+255)/256, frames)
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
