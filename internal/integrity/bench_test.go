package integrity

import "testing"

// BenchmarkChainExtend prices adding a one-event WAL frame to the chain
// and finalizing its head — what a writer that asks for the head after
// every frame pays (internal/wal's BenchmarkChainPerEvent prices the
// chain per event of a batch).
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
// 100k six-byte labels — the snapshot-stamping and restore-verify cost.
func BenchmarkMerkleRoot(b *testing.B) {
	const labels = 100_000
	label := []byte{1, 2, 3, 4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMerkle()
		for v := uint32(0); v < labels; v++ {
			m.AddLabel(v, label)
		}
		_ = m.Root()
	}
	b.ReportMetric(float64(b.N)*labels/b.Elapsed().Seconds(), "labels/sec")
}
