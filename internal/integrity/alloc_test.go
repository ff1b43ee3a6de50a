//go:build !race

package integrity

import "testing"

// TestHashingAllocatesNothing gates the two hashers that sit on hot
// paths — the chain on every ingested frame, the Merkle accumulator on
// every label of a snapshot verified at restore: the chain never
// touches the heap after NewChainer, the accumulator not once its
// buffers have seen the largest input.
func TestHashingAllocatesNothing(t *testing.T) {
	frame := make([]byte, 200)
	c := NewChainer()
	var head Head
	if n := testing.AllocsPerRun(1000, func() { head = c.Extend(head, frame[:40+int(head[0])%160]) }); n != 0 {
		t.Errorf("Chainer.Extend: %v allocations per frame, want 0", n)
	}
	m := NewMerkle()
	v := uint32(0)
	label := func() {
		m.AddLabel(v, frame[:6+v%32])
		v++
	}
	for v < pageLabels { // the first page: the buffer has now held the longest page
		label()
	}
	if n := testing.AllocsPerRun(1<<14, label); n != 0 {
		t.Errorf("Merkle.AddLabel: %v allocations per label, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { head = m.Root() }); n != 0 {
		t.Errorf("Merkle.Root: %v allocations, want 0", n)
	}
}
