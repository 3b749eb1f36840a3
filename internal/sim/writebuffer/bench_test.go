package writebuffer

import "testing"

// BenchmarkWriteBuffer prices one step of a full buffer at the paper's
// depth of 32: the store-to-load forwarding probe (Contains), a walk of
// every pending entry (At), and the retire-one, accept-one pair (Pop,
// Push) that keeps it full. ns/op is the cost of that step.
func BenchmarkWriteBuffer(b *testing.B) {
	const depth = 32
	buf := New(depth)
	var line uint64
	for ; line < depth; line++ {
		if _, err := buf.Push(line, false, line); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if buf.Contains(line - depth/2) {
			hits++
		}
		for j := 0; j < buf.Len(); j++ {
			if buf.At(j).Line == line {
				hits++
			}
		}
		buf.Pop()
		if _, err := buf.Push(line, false, line); err != nil {
			b.Fatal(err)
		}
		line++
	}
	if hits != b.N {
		b.Fatalf("%d of %d forwarding probes hit", hits, b.N)
	}
}
