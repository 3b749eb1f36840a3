package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	cases := []struct {
		nodes, width, height int
	}{
		{1, 1, 1},
		{2, 2, 1},
		{4, 2, 2},
		{8, 3, 3},
		{16, 4, 4},
		{32, 6, 6},
	}
	for _, c := range cases {
		m := New(c.nodes, 1, 4)
		if m.Nodes() != c.nodes || m.Width() != c.width || m.Height() != c.height {
			t.Errorf("New(%d): %dx%d, want %dx%d", c.nodes, m.Width(), m.Height(), c.width, c.height)
		}
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0, 1, 4)
}

func TestCoordinatesAndHops(t *testing.T) {
	m := New(16, 1, 4) // 4x4
	r, c := m.Coordinates(0)
	if r != 0 || c != 0 {
		t.Errorf("Coordinates(0) = (%d,%d)", r, c)
	}
	r, c = m.Coordinates(5)
	if r != 1 || c != 1 {
		t.Errorf("Coordinates(5) = (%d,%d)", r, c)
	}
	if m.Hops(0, 0) != 0 {
		t.Error("Hops(self) != 0")
	}
	if m.Hops(0, 3) != 3 {
		t.Errorf("Hops(0,3) = %d, want 3", m.Hops(0, 3))
	}
	if m.Hops(0, 15) != 6 {
		t.Errorf("Hops(0,15) = %d, want 6 (corner to corner)", m.Hops(0, 15))
	}
	if m.Hops(0, 15) != m.Hops(15, 0) {
		t.Error("Hops must be symmetric")
	}
}

func TestCoordinatesPanicsOutOfRange(t *testing.T) {
	m := New(4, 1, 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node should panic")
		}
	}()
	m.Coordinates(4)
}

func TestLatencyModel(t *testing.T) {
	m := New(16, 1, 4)
	// Same node: one router pass.
	if m.Latency(3, 3) != 4 {
		t.Errorf("local latency = %d, want 4", m.Latency(3, 3))
	}
	// One hop: link + router + destination router.
	if m.Latency(0, 1) != 1*(1+4)+4 {
		t.Errorf("one-hop latency = %d, want 9", m.Latency(0, 1))
	}
	if m.RoundTrip(0, 1) != 2*m.Latency(0, 1) {
		t.Error("RoundTrip should be twice the symmetric one-way latency")
	}
}

func TestBroadcastAndMaxLatency(t *testing.T) {
	m := New(16, 1, 4)
	corner := m.MaxLatencyFrom(0)
	if corner != m.Latency(0, 15) {
		t.Errorf("MaxLatencyFrom(0) = %d, want latency to the far corner %d", corner, m.Latency(0, 15))
	}
	if m.BroadcastLatency(0) != 2*corner {
		t.Errorf("BroadcastLatency = %d, want %d", m.BroadcastLatency(0), 2*corner)
	}
	// The centre of the mesh has a cheaper broadcast than a corner.
	if m.BroadcastLatency(5) >= m.BroadcastLatency(0) {
		t.Error("a central node should broadcast at most as expensively as a corner node")
	}
}

func TestHomeDistributesLines(t *testing.T) {
	m := New(8, 1, 4)
	seen := map[int]bool{}
	for line := uint64(0); line < 64; line++ {
		h := m.Home(line)
		if h < 0 || h >= 8 {
			t.Fatalf("Home(%d) = %d out of range", line, h)
		}
		seen[h] = true
	}
	if len(seen) != 8 {
		t.Errorf("interleaving uses %d of 8 banks", len(seen))
	}
}

func TestPropertyTriangleInequalityOnHops(t *testing.T) {
	m := New(32, 1, 4)
	err := quick.Check(func(a, b, c uint8) bool {
		x, y, z := int(a)%32, int(b)%32, int(c)%32
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLatencySymmetric(t *testing.T) {
	m := New(32, 1, 4)
	err := quick.Check(func(a, b uint8) bool {
		x, y := int(a)%32, int(b)%32
		return m.Latency(x, y) == m.Latency(y, x)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlacesAndHomeMatchTheirFormulas checks the precomputed node places
// against row i/width, column i%width for every node pair's hop count, and
// Home's masking against the modulo, on meshes with and without a
// power-of-two node count.
func TestPlacesAndHomeMatchTheirFormulas(t *testing.T) {
	for _, nodes := range []int{1, 6, 16, 32, 72} {
		m := New(nodes, 1, 4)
		w := m.Width()
		for a := 0; a < nodes; a++ {
			for b := 0; b < nodes; b++ {
				want := abs(a/w-b/w) + abs(a%w-b%w)
				if got := m.Hops(a, b); got != want {
					t.Fatalf("%d nodes: Hops(%d, %d) = %d, want %d", nodes, a, b, got, want)
				}
				if got := m.Latency(a, b); got != uint64(want)*5+4 {
					t.Fatalf("%d nodes: Latency(%d, %d) = %d, want %d", nodes, a, b, got, want*5+4)
				}
			}
		}
		for line := uint64(0); line < 4096; line += 7 {
			if got, want := m.Home(line), int(line%uint64(nodes)); got != want {
				t.Fatalf("%d nodes: Home(%#x) = %d, want %d", nodes, line, got, want)
			}
		}
	}
}

func TestLatencyPanicsOutOfRange(t *testing.T) {
	m := New(6, 1, 4)
	for _, pair := range [][2]int{{0, 6}, {6, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Latency(%d, %d) on 6 nodes did not panic", pair[0], pair[1])
				}
			}()
			m.Latency(pair[0], pair[1])
		}()
	}
}
