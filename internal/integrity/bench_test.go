package integrity

import "testing"

// BenchmarkChainExtend prices one chain link over a one-event WAL
// frame — the per-frame cost the batched flush pass pays
// (internal/wal's BenchmarkChainPerEvent prices it per event).
func BenchmarkChainExtend(b *testing.B) {
	frame := make([]byte, 40)
	var h Head
	c := NewChainer()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		h = c.Extend(h, frame)
	}
	_ = h
}

// BenchmarkMerkleRoot prices the streaming Merkle accumulation over
// 100k label leaves — the snapshot-stamping cost.
func BenchmarkMerkleRoot(b *testing.B) {
	label := []byte{1, 2, 3, 4, 5, 6}
	for i := 0; i < b.N; i++ {
		m := NewMerkle()
		for v := uint32(0); v < 100_000; v++ {
			m.Add(m.LabelLeaf(v, label))
		}
		_ = m.Root()
	}
	b.ReportMetric(float64(b.N)*100_000/b.Elapsed().Seconds(), "leaves/sec")
}
