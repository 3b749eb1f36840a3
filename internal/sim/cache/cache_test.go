package cache

import (
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64} // 16 lines, 8 sets
}

func TestConfigSetsAndValidate(t *testing.T) {
	cfg := smallConfig()
	if cfg.Sets() != 8 {
		t.Errorf("Sets = %d, want 8", cfg.Sets())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 2, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64},
		{SizeBytes: 1000, Assoc: 2, LineBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	if (Config{SizeBytes: 64, Assoc: 1, LineBytes: 64}).Sets() != 1 {
		t.Error("degenerate config should have one set")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{})
}

func TestStateStringAndPredicates(t *testing.T) {
	names := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should render")
	}
	if Invalid.CanRead() || !Shared.CanRead() || !Modified.CanRead() {
		t.Error("CanRead wrong")
	}
	if Shared.CanWrite() || Owned.CanWrite() || !Exclusive.CanWrite() || !Modified.CanWrite() {
		t.Error("CanWrite wrong")
	}
	if Shared.Dirty() || Exclusive.Dirty() || !Owned.Dirty() || !Modified.Dirty() {
		t.Error("Dirty wrong")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(smallConfig())
	if c.Lookup(100) != Invalid {
		t.Fatal("empty cache should miss")
	}
	c.Insert(100, Shared)
	if c.Lookup(100) != Shared {
		t.Fatal("inserted line should hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	c := New(smallConfig())
	c.Insert(5, Modified)
	h, m := c.Hits(), c.Misses()
	if c.Peek(5) != Modified || c.Peek(6) != Invalid {
		t.Error("Peek returned wrong state")
	}
	if c.Hits() != h || c.Misses() != m {
		t.Error("Peek must not change statistics")
	}
}

func TestInsertUpdatesStateInPlace(t *testing.T) {
	c := New(smallConfig())
	c.Insert(7, Shared)
	if _, evicted := c.Insert(7, Modified); evicted {
		t.Error("re-inserting a present line must not evict")
	}
	if c.Peek(7) != Modified {
		t.Error("state upgrade lost")
	}
	if c.Occupancy() != 1 {
		t.Error("duplicate insert grew occupancy")
	}
}

func TestInsertInvalidRemoves(t *testing.T) {
	c := New(smallConfig())
	c.Insert(7, Shared)
	c.Insert(7, Invalid)
	if c.Peek(7) != Invalid {
		t.Error("Insert with Invalid should remove the line")
	}
}

func TestEvictionLRU(t *testing.T) {
	c := New(smallConfig()) // 8 sets, 2 ways
	// Three lines mapping to the same set (stride = number of sets).
	a, b, d := uint64(0), uint64(8), uint64(16)
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	// Touch a so that b becomes LRU.
	c.Lookup(a)
	evicted, did := c.Insert(d, Exclusive)
	if !did || evicted != b {
		t.Errorf("evicted %d (did=%v), want %d", evicted, did, b)
	}
	if c.Peek(a) == Invalid || c.Peek(d) == Invalid {
		t.Error("wrong lines evicted")
	}
	if c.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", c.Evictions())
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := New(smallConfig())
	c.Insert(3, Exclusive)
	c.SetState(3, Owned)
	if c.Peek(3) != Owned {
		t.Error("SetState lost")
	}
	c.SetState(99, Modified) // absent: no-op
	if c.Peek(99) != Invalid {
		t.Error("SetState on an absent line must not insert it")
	}
	c.Invalidate(3)
	if c.Peek(3) != Invalid {
		t.Error("Invalidate failed")
	}
	if c.Occupancy() != 0 {
		t.Error("occupancy wrong after invalidate")
	}
}

func TestCapacityAndOccupancy(t *testing.T) {
	c := New(smallConfig())
	if c.Capacity() != 16 {
		t.Errorf("Capacity = %d, want 16", c.Capacity())
	}
	for i := uint64(0); i < 16; i++ {
		c.Insert(i, Shared)
	}
	if c.Occupancy() != 16 {
		t.Errorf("Occupancy = %d, want 16", c.Occupancy())
	}
	// Inserting more lines keeps occupancy at capacity.
	c.Insert(100, Shared)
	if c.Occupancy() != 16 {
		t.Errorf("Occupancy after overflow = %d, want 16", c.Occupancy())
	}
}

func TestPropertyInsertedLineIsFoundUntilEvicted(t *testing.T) {
	err := quick.Check(func(addrs []uint64) bool {
		c := New(Config{SizeBytes: 4096, Assoc: 4, LineBytes: 64})
		for _, a := range addrs {
			a %= 1 << 20
			c.Insert(a, Shared)
			if c.Peek(a) != Shared {
				return false // a just-inserted line must be present
			}
		}
		return c.Occupancy() <= c.Capacity()
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOccupancyNeverExceedsCapacity(t *testing.T) {
	c := New(smallConfig())
	err := quick.Check(func(a uint64, s uint8) bool {
		state := State(1 + int(s)%4)
		c.Insert(a%1024, state)
		return c.Occupancy() <= c.Capacity()
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetIndexWithAndWithoutPowerOfTwoSets fills set 0 past its ways with
// lines a set count apart and checks that exactly those lines compete for
// it, for a power-of-two set count (masked) and for 48 sets (modulo).
func TestSetIndexWithAndWithoutPowerOfTwoSets(t *testing.T) {
	for _, sets := range []int{128, 48} {
		c := New(Config{SizeBytes: sets * 4 * 64, Assoc: 4, LineBytes: 64})
		if got := c.Config().Sets(); got != sets {
			t.Fatalf("%d sets configured, cache has %d", sets, got)
		}
		// Neighbours of set 0's lines land in other sets and never evict.
		for i := 0; i < 4; i++ {
			c.Insert(uint64(i*sets+1), Shared)
			c.Insert(uint64(i*sets+sets-1), Shared)
		}
		for i := 0; i < 4; i++ {
			if _, evicted := c.Insert(uint64(i*sets), Shared); evicted {
				t.Fatalf("%d sets: line %d evicted with set 0 not full", sets, i*sets)
			}
		}
		if victim, evicted := c.Insert(uint64(4*sets), Shared); !evicted || victim != 0 {
			t.Errorf("%d sets: a fifth line in set 0 evicted %d (%t), want line 0", sets, victim, evicted)
		}
	}
}
