package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestLogBytesPerEventOnBioAID gates what the log stores per event of a
// 20k-event BioAID stream, frame headers included, as the service
// writes it: one frame per 256-event batch, 7.57 B, where one frame per
// event spent 15.54 B and the classic writer of earlier builds 18.49 B.
// The bound is the measured value plus 1%. One-event frames — what
// earlier builds of this one wrote — still decode to the same records.
func TestLogBytesPerEventOnBioAID(t *testing.T) {
	const bound = 7.57 * 1.01
	events, _, err := gen.GenerateEvents(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var log, single []byte
	for lo := 0; lo < len(events); lo += 256 {
		open := -1
		for _, ev := range events[lo:min(lo+256, len(events))] {
			if log, open, err = AppendRecord(log, open, RefRecord(ev)); err != nil {
				t.Fatal(err)
			}
			if single, err = AppendFrame(single, RefRecord(ev)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := float64(len(log)) / float64(len(events))
	t.Logf("%.3f B per event in 256-event frames, %.3f B in one-event frames", got, float64(len(single))/float64(len(events)))
	if got > bound {
		t.Fatalf("%.3f B per event over %d events, bound %.3f", got, len(events), bound)
	}
	path := filepath.Join(t.TempDir(), "single.wal")
	if err := os.WriteFile(path, single, 0o644); err != nil {
		t.Fatal(err)
	}
	i := 0
	n, size, err := Scan(path, func(_ int, rec Record) error {
		if !reflect.DeepEqual(rec, RefRecord(events[i])) {
			t.Fatalf("one-event frame %d decodes to %+v, want %+v", i, rec, RefRecord(events[i]))
		}
		i++
		return nil
	})
	if err != nil || n != len(events) || size != int64(len(single)) {
		t.Fatalf("one-event frames scan to %d records over %d of %d bytes, %v", n, size, len(single), err)
	}
}
