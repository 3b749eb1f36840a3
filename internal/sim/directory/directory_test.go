package directory

import (
	"testing"

	"repro/internal/sim/cache"
	"repro/internal/sim/mesh"
)

func paperLatencies() Latencies {
	return Latencies{L1: 2, L2: 6, Mem: 300, LockRetry: 2}
}

func newTestDirectory(cores int) *Directory {
	m := mesh.New(cores, 1, 4)
	caches := make([]*cache.Cache, cores)
	for i := range caches {
		caches[i] = cache.New(cache.Config{SizeBytes: 32 * 1024, Assoc: 4, LineBytes: 64})
	}
	return New(m, caches, paperLatencies())
}

// access runs a request that must be granted and returns its completion
// time.
func access(t *testing.T, d *Directory, core int, line uint64, kind ReqKind, start uint64) uint64 {
	t.Helper()
	return grant(t, d, Request{Core: core, Line: line, Kind: kind, Start: start})
}

// grant issues a request that must be granted and returns its completion
// time.
func grant(t *testing.T, d *Directory, r Request) uint64 {
	t.Helper()
	done, ok := d.Access(r)
	if !ok {
		t.Fatalf("request %+v was denied", r)
	}
	return done
}

// resume re-issues the waiters an Unlock returned, the way the simulator
// does, and returns the completion times of those granted.
func resume(t *testing.T, d *Directory, waiters []Waiter) []uint64 {
	t.Helper()
	var out []uint64
	for _, w := range waiters {
		if done, ok := d.Access(w.Request); ok {
			out = append(out, done)
		}
	}
	return out
}

func TestNewPanicsOnMismatchedCaches(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched cache count should panic")
		}
	}()
	New(mesh.New(4, 1, 4), make([]*cache.Cache, 2), paperLatencies())
}

func TestColdMissGoesToMemory(t *testing.T) {
	d := newTestDirectory(4)
	done := access(t, d, 0, 0x40, GetS, 0)
	if done < paperLatencies().Mem {
		t.Errorf("cold miss completed in %d cycles, must include the %d-cycle memory latency", done, paperLatencies().Mem)
	}
	if d.Stats().MemAccesses != 1 {
		t.Errorf("MemAccesses = %d, want 1", d.Stats().MemAccesses)
	}
	// The line is now cached locally: a second read is an L1 hit.
	done2 := access(t, d, 0, 0x40, GetS, done)
	if done2-done != paperLatencies().L1 {
		t.Errorf("second read latency = %d, want L1 hit latency %d", done2-done, paperLatencies().L1)
	}
}

func TestL2HitCheaperThanMemoryAndDearerThanL1(t *testing.T) {
	d := newTestDirectory(4)
	// Core 0 warms the line (memory), then drops sharers... keep core 0 as
	// sharer; core 1 then reads: should be an L2/ sharer supply, no memory.
	access(t, d, 0, 0x80, GetS, 0)
	start := uint64(1000)
	done := access(t, d, 1, 0x80, GetS, start)
	lat := done - start
	if lat >= paperLatencies().Mem {
		t.Errorf("sharer read latency %d should not include memory", lat)
	}
	if lat <= paperLatencies().L1 {
		t.Errorf("remote read latency %d should exceed an L1 hit", lat)
	}
	if d.Stats().L2Hits == 0 {
		t.Error("expected an L2 hit")
	}
}

func TestGetMInvalidatesSharers(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 0, 0x100, GetS, 0)
	access(t, d, 1, 0x100, GetS, 0)
	access(t, d, 2, 0x100, GetS, 0)
	if len(d.Sharers(0x100)) != 3 {
		t.Fatalf("sharers = %v, want 3 cores", d.Sharers(0x100))
	}
	access(t, d, 3, 0x100, GetM, 2000)
	if d.Owner(0x100) != 3 {
		t.Errorf("owner = %d, want 3", d.Owner(0x100))
	}
	if len(d.Sharers(0x100)) != 1 {
		t.Errorf("sharers after GetM = %v, want only the new owner", d.Sharers(0x100))
	}
	for c := 0; c < 3; c++ {
		if d.Cache(c).Peek(0x100) != cache.Invalid {
			t.Errorf("core %d still holds the line after invalidation", c)
		}
	}
	if d.Stats().Invalidations == 0 {
		t.Error("invalidations not counted")
	}
}

func TestGetMFromRemoteOwnerForwards(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 0, 0x140, GetM, 0)
	if d.Owner(0x140) != 0 {
		t.Fatal("owner not set")
	}
	start := uint64(5000)
	done := access(t, d, 1, 0x140, GetM, start)
	if d.Owner(0x140) != 1 {
		t.Errorf("ownership did not transfer")
	}
	if d.Cache(0).Peek(0x140) != cache.Invalid {
		t.Error("previous owner not invalidated")
	}
	if d.Stats().OwnerForwards == 0 {
		t.Error("owner forward not counted")
	}
	// Dirty transfer must not involve memory.
	if done-start >= paperLatencies().Mem {
		t.Errorf("owner-to-owner transfer latency %d should not include memory", done-start)
	}
}

func TestOwnedWriteHitIsL1Latency(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 2, 0x180, GetM, 0)
	start := uint64(1000)
	done := access(t, d, 2, 0x180, GetM, start)
	if done-start != paperLatencies().L1 {
		t.Errorf("write hit latency = %d, want %d", done-start, paperLatencies().L1)
	}
}

func TestGetSFromRemoteOwnerLeavesOwnerInOwned(t *testing.T) {
	d := newTestDirectory(4)
	access(t, d, 0, 0x1c0, GetM, 0)
	access(t, d, 1, 0x1c0, GetS, 1000)
	if d.Cache(0).Peek(0x1c0) != cache.Owned {
		t.Errorf("previous owner state = %v, want Owned", d.Cache(0).Peek(0x1c0))
	}
	if d.Cache(1).Peek(0x1c0) != cache.Shared {
		t.Errorf("reader state = %v, want Shared", d.Cache(1).Peek(0x1c0))
	}
	if d.Stats().OwnerForwards == 0 {
		t.Error("owner forward not counted")
	}
}

func TestLockDeniesOtherCoresUntilUnlock(t *testing.T) {
	d := newTestDirectory(4)
	// Core 0 acquires and locks the line.
	lockDone := grant(t, d, Request{Core: 0, Line: 0x200, Kind: GetM, Lock: true})
	if locked, owner := d.IsLocked(0x200); !locked || owner != 0 {
		t.Fatalf("line not locked by core 0 (locked=%v owner=%d)", locked, owner)
	}
	// Core 1's request is denied and parks.
	if _, ok := d.Access(Request{Core: 1, Line: 0x200, Kind: GetM, Start: lockDone + 10}); ok {
		t.Fatal("request to a locked line must not complete before unlock")
	}
	if d.Stats().LockDenials != 1 {
		t.Errorf("LockDenials = %d, want 1", d.Stats().LockDenials)
	}
	// Unlock at some later time: the parked request resumes and completes
	// after the unlock.
	unlockAt := lockDone + 500
	done := resume(t, d, d.Unlock(0x200, 0, unlockAt))
	if len(done) != 1 {
		t.Fatal("parked request did not resume on unlock")
	}
	if core1Done := done[0]; core1Done <= unlockAt {
		t.Errorf("parked request completed at %d, must be after the unlock at %d", core1Done, unlockAt)
	}
	if locked, _ := d.IsLocked(0x200); locked {
		t.Error("line still locked after unlock")
	}
	if d.LockedLines() != 0 {
		t.Error("LockedLines should be zero")
	}
}

func TestLockOwnerCanStillAccess(t *testing.T) {
	d := newTestDirectory(2)
	grant(t, d, Request{Core: 0, Line: 0x240, Kind: GetM, Lock: true})
	// The lock owner's own requests proceed (e.g. the RMW's write half).
	done := access(t, d, 0, 0x240, GetM, 100)
	if done != 100+paperLatencies().L1 {
		t.Errorf("owner access latency = %d, want L1 hit", done-100)
	}
}

func TestTwoRMWsOnSameLineSerialize(t *testing.T) {
	d := newTestDirectory(2)
	firstDone := grant(t, d, Request{Core: 0, Line: 0x280, Kind: GetM, Lock: true})
	if _, ok := d.Access(Request{Core: 1, Line: 0x280, Kind: GetM, Lock: true}); ok {
		t.Fatal("second RMW must wait for the first lock")
	}
	done := resume(t, d, d.Unlock(0x280, 0, firstDone+50))
	if len(done) != 1 {
		t.Fatal("second RMW did not resume")
	}
	if secondDone := done[0]; secondDone <= firstDone+50 {
		t.Errorf("second RMW completed at %d, want after the unlock at %d", secondDone, firstDone+50)
	}
	// It must also have locked the line for itself.
	if locked, owner := d.IsLocked(0x280); !locked || owner != 1 {
		t.Errorf("line should now be locked by core 1 (locked=%v owner=%d)", locked, owner)
	}
}

func TestLockReentrantAndMisuse(t *testing.T) {
	d := newTestDirectory(2)
	d.Lock(0x2c0, 0)
	d.Lock(0x2c0, 0) // same owner: nests, needing a second Unlock
	func() {
		defer func() {
			if recover() == nil {
				t.Error("locking a line locked by another core should panic")
			}
		}()
		d.Lock(0x2c0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unlocking someone else's lock should panic")
			}
		}()
		d.Unlock(0x2c0, 1, 0)
	}()
	d.Unlock(0x2c0, 0, 0)
	if locked, owner := d.IsLocked(0x2c0); !locked || owner != 0 {
		t.Fatalf("after one of two Unlocks: IsLocked = %v, %d; want still locked by core 0", locked, owner)
	}
	d.Unlock(0x2c0, 0, 0)
	if locked, _ := d.IsLocked(0x2c0); locked {
		t.Fatal("line still locked after the second Unlock")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unlocking an unlocked line should panic")
			}
		}()
		d.Unlock(0x2c0, 0, 0)
	}()
}

func TestHasLocalCopy(t *testing.T) {
	d := newTestDirectory(2)
	if d.HasLocalCopy(0, 0x300) {
		t.Error("cold line reported as local")
	}
	access(t, d, 0, 0x300, GetS, 0)
	if !d.HasLocalCopy(0, 0x300) {
		t.Error("cached line not reported as local")
	}
	if d.HasLocalCopy(1, 0x300) {
		t.Error("other core's copy misreported")
	}
}

func TestEvictionUpdatesDirectory(t *testing.T) {
	// A tiny cache forces evictions quickly.
	m := mesh.New(2, 1, 4)
	caches := []*cache.Cache{
		cache.New(cache.Config{SizeBytes: 128, Assoc: 1, LineBytes: 64}), // 2 lines
		cache.New(cache.Config{SizeBytes: 128, Assoc: 1, LineBytes: 64}),
	}
	d := New(m, caches, paperLatencies())
	// Three lines mapping to the same set (stride = sets = 2).
	access(t, d, 0, 0, GetM, 0)
	access(t, d, 0, 2, GetM, 0)
	if d.Owner(0) != -1 {
		t.Error("evicted line should have no owner in the directory")
	}
	// Re-reading the evicted (written-back) line must not go to memory
	// again.
	before := d.Stats().MemAccesses
	access(t, d, 0, 0, GetS, 1000)
	if d.Stats().MemAccesses != before {
		t.Error("written-back line should be supplied by the L2, not memory")
	}
}

func TestReqKindString(t *testing.T) {
	if GetS.String() != "GetS" || GetM.String() != "GetM" {
		t.Error("request kind names wrong")
	}
	if ReqKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestUnlockHandsOverWaitersWithRetryCycles(t *testing.T) {
	d := newTestDirectory(4)
	const line = 0x340
	grant(t, d, Request{Core: 0, Line: line, Kind: GetM, Lock: true})
	if _, ok := d.Access(Request{Core: 1, Line: line, Kind: GetM, Start: 1000, Lock: true, Tag: 11}); ok {
		t.Fatal("core 1 must be denied")
	}
	if _, ok := d.Access(Request{Core: 2, Line: line, Kind: GetS, Start: 5, Tag: 22}); ok {
		t.Fatal("core 2 must be denied")
	}
	if !d.WaitForUnlock(Request{Core: 3, Line: line, Kind: GetM, Start: 7, Tag: 33}) {
		t.Fatal("a drain must wait for another core's lock")
	}
	if d.WaitForUnlock(Request{Core: 0, Line: line, Kind: GetM}) {
		t.Error("the lock owner's drain must not wait")
	}
	retry := paperLatencies().LockRetry
	ws := d.Unlock(line, 0, 100)
	want := []Waiter{
		{Request: Request{Core: 1, Line: line, Kind: GetM, Start: 1000, Lock: true, Tag: 11}},
		{Request: Request{Core: 2, Line: line, Kind: GetS, Start: 100 + retry, Tag: 22}},
		{Request: Request{Core: 3, Line: line, Kind: GetM, Start: 100 + retry, Tag: 33}, Drain: true},
	}
	if len(ws) != len(want) {
		t.Fatalf("Unlock returned %d waiters, want %d", len(ws), len(want))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("waiter %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
	// Resuming core 1 locks the line again, so core 2 parks on the new
	// lock; that must not overwrite the drain not yet resumed.
	grant(t, d, ws[0].Request)
	if _, ok := d.Access(ws[1].Request); ok {
		t.Fatal("core 2 must be denied by core 1's lock")
	}
	if ws[2] != want[2] {
		t.Errorf("re-parking overwrote a handed-over waiter: %+v", ws[2])
	}
	again := d.Unlock(line, 1, 2000)
	if len(again) != 1 || again[0].Core != 2 || again[0].Start != 2000+retry {
		t.Errorf("second Unlock returned %+v, want core 2 retrying at %d", again, 2000+retry)
	}
	if d.LockedLines() != 0 {
		t.Errorf("LockedLines = %d, want 0", d.LockedLines())
	}
}

// TestLineTableKeepsRecordsAcrossGrowth fills the line table far past its
// initial size and checks that every line finds its own record, and that
// a record taken before the table grew is still the line's record.
func TestLineTableKeepsRecordsAcrossGrowth(t *testing.T) {
	d := newTestDirectory(4)
	first := d.meta(0)
	const n = 20 * initialLineSlots
	recs := make([]*lineMeta, n)
	for i := range recs {
		// A stride of lockHints puts every line in one lock-hint bucket.
		recs[i] = d.meta(uint64(i) * lockHints)
	}
	if len(d.lines.slots) < 2*n {
		t.Fatalf("%d slots hold %d lines: the table is more than half full", len(d.lines.slots), n)
	}
	if recs[0] != first {
		t.Error("line 0's record moved when the table grew")
	}
	for i, m := range recs {
		if got := d.lines.find(uint64(i) * lockHints); got != m {
			t.Fatalf("line %#x finds record %p, want %p", uint64(i)*lockHints, got, m)
		}
	}
	if d.lines.find(1) != nil {
		t.Error("a line never touched has a record")
	}
}

// TestLockHintsFollowLocks locks, nests and unlocks lines that share a
// lock-hint bucket and checks the counts after every step, and that a
// line sharing a bucket with a locked one is neither denied nor locked.
func TestLockHintsFollowLocks(t *testing.T) {
	d := newTestDirectory(4)
	a, b := uint64(7), uint64(7+lockHints)
	check := func(step string) {
		t.Helper()
		if err := d.CheckLockCounts(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	grant(t, d, Request{Core: 0, Line: a, Kind: GetM, Lock: true})
	check("locking a")
	if got := d.lockHint[a%lockHints]; got != 1 {
		t.Errorf("hint after one lock = %d, want 1", got)
	}
	access(t, d, 1, b, GetS, 10) // same bucket, unlocked: granted
	if locked, _ := d.IsLocked(b); locked {
		t.Error("a line sharing a bucket with a locked line reads as locked")
	}
	d.Lock(a, 0) // nested
	grant(t, d, Request{Core: 2, Line: b, Kind: GetM, Lock: true})
	check("nesting a and locking b")
	if got := d.lockHint[a%lockHints]; got != 2 {
		t.Errorf("hint with a nested and b locked = %d, want 2", got)
	}
	if _, ok := d.Access(Request{Core: 1, Line: a, Kind: GetS, Start: 20}); ok {
		t.Error("a read of a line locked by another core was granted")
	}
	d.Unlock(a, 0, 30)
	check("unnesting a")
	if ws := d.Unlock(a, 0, 31); len(ws) != 1 {
		t.Errorf("unlocking a returned %d waiters, want the denied read", len(ws))
	}
	check("unlocking a")
	d.Unlock(b, 2, 32)
	check("unlocking b")
	if d.lockHint[a%lockHints] != 0 || d.LockedLines() != 0 {
		t.Errorf("hint %d and %d locked lines after every unlock", d.lockHint[a%lockHints], d.LockedLines())
	}
}
