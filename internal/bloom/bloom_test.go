package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRoundsUpAndPanicsOnBadConfig(t *testing.T) {
	f := New(100, 3)
	if f.nbits != 128 || len(f.bits) != 2 {
		t.Errorf("New(100, 3) has %d bits in %d words, want 128 in 2 (rounded to a word)", f.nbits, len(f.bits))
	}
	if f.hashes != 3 {
		t.Errorf("hashes = %d", f.hashes)
	}
	for _, bad := range []func(){
		func() { New(0, 3) },
		func() { New(-1, 3) },
		func() { New(64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad configuration should panic")
				}
			}()
			bad()
		}()
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 3)
	rng := rand.New(rand.NewSource(42))
	var inserted []uint64
	for i := 0; i < 200; i++ {
		a := rng.Uint64()
		f.Insert(a)
		inserted = append(inserted, a)
	}
	for _, a := range inserted {
		if !f.MayContain(a) {
			t.Fatalf("false negative for %#x", a)
		}
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(1024, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if f.MayContain(rng.Uint64()) {
			t.Fatal("empty filter reported a member")
		}
	}
	for _, w := range f.bits {
		if w != 0 {
			t.Fatal("empty filter has set bits")
		}
	}
}

func TestFalsePositiveRateIsLowAtPaperOccupancy(t *testing.T) {
	// The paper observes ~1% of dynamic RMWs are to unique addresses and
	// sizes the filter (128 B, 3 hash functions) so false positives stay
	// rare. With ~30 unique addresses in a 1024-bit filter the measured
	// rate should be well under 5%.
	f := New(1024, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		f.Insert(rng.Uint64())
	}
	probes := 20000
	fp := 0
	for i := 0; i < probes; i++ {
		if f.MayContain(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 0.05 {
		t.Errorf("false positive rate %.3f too high at paper occupancy", rate)
	}
}

func TestPropertyInsertImpliesContains(t *testing.T) {
	f := New(512, 4)
	err := quick.Check(func(addr uint64) bool {
		f.Insert(addr)
		return f.MayContain(addr)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddrListBroadcastProtocol(t *testing.T) {
	l := NewAddrList(1024, 3)
	// First encounter of an address broadcasts it.
	if !l.LookupOrBroadcast(0x1000) {
		t.Fatal("first lookup of a new address must broadcast")
	}
	if l.Broadcasts() != 1 {
		t.Errorf("Broadcasts = %d, want 1", l.Broadcasts())
	}
	if !l.MayContain(0x1000) {
		t.Error("the list is missing the broadcast address")
	}
	// A second RMW to the same address, from any core, does not
	// broadcast again.
	if l.LookupOrBroadcast(0x1000) {
		t.Error("known address must not broadcast")
	}
	if l.Broadcasts() != 1 {
		t.Errorf("Broadcasts = %d, want still 1", l.Broadcasts())
	}
}

func TestAddrListConflictCheck(t *testing.T) {
	l := NewAddrList(1024, 3)
	if l.MayContain(0x2000) {
		t.Error("no conflicts before any RMW")
	}
	l.LookupOrBroadcast(0x2000)
	// A pending write to the RMW'd line, on any core, must now conflict.
	if !l.MayContain(0x2000) {
		t.Error("pending write to an RMW'd line must conflict")
	}
	if l.MayContain(0x9999) {
		t.Error("unrelated pending write should not conflict (modulo false positives at this occupancy)")
	}
}

func BenchmarkFilterInsert(b *testing.B) {
	f := New(1024, 3)
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkFilterLookup(b *testing.B) {
	f := New(1024, 3)
	for i := 0; i < 64; i++ {
		f.Insert(uint64(i) * 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(uint64(i))
	}
}
