package wal

import (
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestLogBytesPerEventOnBioAID gates what the log stores per event of a
// 20k-event BioAID stream, frame header included: 15.54 B in the
// compact kinds, where the classic writer of earlier builds spent
// 18.49 B. The bound is the measured value plus 1%.
func TestLogBytesPerEventOnBioAID(t *testing.T) {
	const bound = 15.54 * 1.01
	events, _, err := gen.GenerateEvents(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, ev := range events {
		if log, err = AppendFrame(log, RefRecord(ev)); err != nil {
			t.Fatal(err)
		}
	}
	if got := float64(len(log)) / float64(len(events)); got > bound {
		t.Fatalf("%.3f B per event over %d events, bound %.3f", got, len(events), bound)
	}
}
