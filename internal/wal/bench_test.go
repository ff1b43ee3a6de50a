package wal

import (
	"fmt"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/integrity"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// BenchmarkChainPerEvent prices the hash chain per event of one 20k-event
// BioAID stream, each frame's records added to the running digest and a
// head finalized after it, as a commit round asks — in one-event frames
// and in the 256-event frames a batch is logged as. The difference is
// the finalization per event a batch frame saves; the hashed record
// bytes are the same.
func BenchmarkChainPerEvent(b *testing.B) {
	events, _, err := gen.GenerateEvents(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, per := range []int{1, 256} {
		var frames [][]byte
		for lo := 0; lo < len(events); lo += per {
			var frame []byte
			open := -1
			for _, ev := range events[lo:min(lo+per, len(events))] {
				if frame, open, err = AppendRecord(frame, open, RefRecord(ev)); err != nil {
					b.Fatal(err)
				}
			}
			frames = append(frames, frame)
		}
		b.Run(fmt.Sprintf("events_per_frame=%d", per), func(b *testing.B) {
			c := integrity.NewChainer()
			var head integrity.Head
			for i := 0; i < b.N; i++ {
				for _, f := range frames {
					head = c.Extend(head, f)
				}
			}
			_ = head
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}
}
