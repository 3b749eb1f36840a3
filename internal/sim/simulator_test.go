package sim

import (
	"testing"

	"repro/internal/core"
)

// testConfig is a small configuration (4 cores) that keeps unit-test runs
// fast while preserving the Table 2 latencies.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.MaxCycles = 10_000_000
	return cfg
}

func runTrace(t *testing.T, cfg Config, trace *Trace) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(trace)
	if err != nil {
		t.Fatalf("Run(%s): %v", trace.Name, err)
	}
	return res
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Fatal("New must reject an invalid configuration")
	}
	good, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if good.Config().Cores != 4 {
		t.Error("Config accessor wrong")
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	sim, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(NewTrace("too-big", 64)); err == nil {
		t.Fatal("trace with more streams than cores must be rejected")
	}
}

func TestSingleCoreComputeOnly(t *testing.T) {
	trace := NewTrace("compute", 1)
	trace.Append(0, Compute(100), Compute(50))
	res := runTrace(t, testConfig(), trace)
	if res.Cycles != 150 {
		t.Errorf("Cycles = %d, want 150", res.Cycles)
	}
	if res.PerCore[0].Computes != 2 {
		t.Errorf("Computes = %d, want 2", res.PerCore[0].Computes)
	}
	if res.TotalMemOps() != 0 || res.TotalRMWs() != 0 {
		t.Error("compute-only trace should have no memory operations")
	}
}

func TestReadLatencies(t *testing.T) {
	cfg := testConfig()
	trace := NewTrace("reads", 1)
	trace.Append(0, Read(0x1000), Read(0x1000))
	res := runTrace(t, cfg, trace)
	// First read: cold miss, must include the memory latency. Second read:
	// L1 hit.
	if res.PerCore[0].ReadStallCycles < cfg.MemLatencyCycles {
		t.Errorf("read stalls %d should include the %d-cycle memory latency",
			res.PerCore[0].ReadStallCycles, cfg.MemLatencyCycles)
	}
	if res.PerCore[0].Reads != 2 {
		t.Errorf("Reads = %d, want 2", res.PerCore[0].Reads)
	}
}

func TestWritesRetireIntoWriteBufferWithoutStalling(t *testing.T) {
	cfg := testConfig()
	trace := NewTrace("writes", 1)
	for i := 0; i < 8; i++ {
		trace.Append(0, Write(uint64(0x2000+64*i)))
	}
	res := runTrace(t, cfg, trace)
	// Eight writes into a 32-entry buffer retire at one per cycle; the core
	// must not wait for the misses to complete.
	if res.Cycles > 50 {
		t.Errorf("writes should retire into the buffer quickly, took %d cycles", res.Cycles)
	}
	if res.PerCore[0].Writes != 8 {
		t.Errorf("Writes = %d", res.PerCore[0].Writes)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	cfg := testConfig()
	trace := NewTrace("fwd", 1)
	trace.Append(0, Write(0x3000), Read(0x3000))
	res := runTrace(t, cfg, trace)
	// The read is forwarded from the write buffer: no memory stall.
	if res.PerCore[0].ReadStallCycles >= cfg.MemLatencyCycles {
		t.Errorf("forwarded read stalled %d cycles", res.PerCore[0].ReadStallCycles)
	}
}

func TestFenceDrainsWriteBuffer(t *testing.T) {
	cfg := testConfig()
	trace := NewTrace("fence", 1)
	trace.Append(0, Write(0x4000), Fence(), Compute(1))
	res := runTrace(t, cfg, trace)
	// The fence must wait for the write's cold miss to complete.
	if res.Cycles < cfg.MemLatencyCycles {
		t.Errorf("fence did not wait for the pending write (cycles=%d)", res.Cycles)
	}
	if res.PerCore[0].Fences != 1 {
		t.Error("fence not counted")
	}
}

func TestWriteBufferFullStallsCore(t *testing.T) {
	cfg := testConfig()
	cfg.WriteBufferDepth = 2
	trace := NewTrace("wb-full", 1)
	for i := 0; i < 6; i++ {
		trace.Append(0, Write(uint64(0x5000+64*i)))
	}
	res := runTrace(t, cfg, trace)
	if res.PerCore[0].WriteStallCycles == 0 {
		t.Error("a 2-entry write buffer must stall a burst of 6 writes")
	}
}

func TestType1RMWIncludesDrainAndLocking(t *testing.T) {
	cfg := testConfig().WithRMWType(core.Type1)
	trace := NewTrace("type1-rmw", 1)
	trace.Append(0, Write(0x6000), RMW(0x7000), Compute(1))
	res := runTrace(t, cfg, trace)
	c := res.PerCore[0]
	if c.RMWsCompleted != 1 {
		t.Fatalf("completed RMWs = %d, want 1", c.RMWsCompleted)
	}
	// The pending write's cold miss must appear in the write-buffer
	// component.
	if c.RMWWriteBufferCycles < cfg.MemLatencyCycles {
		t.Errorf("type-1 write-buffer component %d should include the pending write's memory latency", c.RMWWriteBufferCycles)
	}
	if c.RMWRaWaCycles == 0 {
		t.Error("type-1 Ra/Wa component must be non-zero")
	}
	if c.RMWReverts != 0 || c.RMWBroadcasts != 0 {
		t.Error("type-1 RMWs neither broadcast nor revert")
	}
}

func TestType2RMWHidesWriteBufferDrain(t *testing.T) {
	base := testConfig()
	trace := func() *Trace {
		tr := NewTrace("wb-hide", 1)
		tr.Append(0, Write(0x8000), RMW(0x9000), Compute(1))
		return tr
	}
	res1 := runTrace(t, base.WithRMWType(core.Type1), trace())
	res2 := runTrace(t, base.WithRMWType(core.Type2), trace())
	_, _, t1 := res1.AvgRMWCost()
	wb2, _, t2 := res2.AvgRMWCost()
	if wb2 != 0 {
		t.Errorf("type-2 RMW write-buffer component = %.1f, want 0 (no conflicting pending write)", wb2)
	}
	if t2 >= t1 {
		t.Errorf("type-2 RMW cost %.1f should be below type-1 cost %.1f", t2, t1)
	}
	// The whole run should also be faster.
	if res2.Cycles >= res1.Cycles {
		t.Errorf("type-2 execution (%d cycles) should beat type-1 (%d cycles)", res2.Cycles, res1.Cycles)
	}
}

func TestType2RMWBroadcastsOncePerUniqueLine(t *testing.T) {
	cfg := testConfig().WithRMWType(core.Type2)
	trace := NewTrace("broadcasts", 2)
	trace.Append(0, RMW(0xa000), RMW(0xa000), RMW(0xa000))
	trace.Append(1, RMW(0xa000), RMW(0xb000))
	res := runTrace(t, cfg, trace)
	// Two unique RMW lines -> two broadcasts, regardless of the five
	// dynamic RMWs.
	if res.Broadcasts != 2 {
		t.Errorf("Broadcasts = %d, want 2", res.Broadcasts)
	}
	if res.UniqueRMWs != 2 {
		t.Errorf("UniqueRMWs = %d, want 2", res.UniqueRMWs)
	}
	if res.TotalRMWs() != 5 {
		t.Errorf("TotalRMWs = %d, want 5", res.TotalRMWs())
	}
}

func TestType3CheaperThanType2OnSharedLines(t *testing.T) {
	// Both cores repeatedly RMW a line that the other core also reads, so
	// under type-2 every RMW pays an invalidation round while type-3's read
	// permission does not.
	mk := func() *Trace {
		tr := NewTrace("shared-rmw", 2)
		for i := 0; i < 20; i++ {
			tr.Append(0, Read(0xc000), RMW(0xd000), Compute(20))
			tr.Append(1, Read(0xd000), RMW(0xc000), Compute(20))
		}
		return tr
	}
	res2 := runTrace(t, testConfig().WithRMWType(core.Type2), mk())
	res3 := runTrace(t, testConfig().WithRMWType(core.Type3), mk())
	_, _, c2 := res2.AvgRMWCost()
	_, _, c3 := res3.AvgRMWCost()
	if c3 > c2 {
		t.Errorf("type-3 average RMW cost %.1f should not exceed type-2 cost %.1f", c3, c2)
	}
}

func TestLockedLineDelaysOtherCores(t *testing.T) {
	// Core 0 performs a weak RMW on line L and then a slow cold write keeps
	// its write buffer busy, so L stays locked; core 1 reads L and must wait
	// for the unlock rather than complete at L1/L2 latency.
	cfg := testConfig().WithRMWType(core.Type2)
	trace := NewTrace("lock-delay", 2)
	trace.Append(0, Write(0xe000), RMW(0xf000), Compute(1))
	trace.Append(1, Compute(30), Read(0xf000), Compute(1))
	res := runTrace(t, cfg, trace)
	if res.DirectoryLockDenials == 0 {
		t.Error("core 1's read of the locked line should have been denied at least once")
	}
	if res.Deadlocked {
		t.Error("this workload must not deadlock")
	}
}

// fig10Trace builds the write-deadlock pattern of Fig. 10. A warm-up phase
// makes each core the owner of the line it will RMW (so the RMW's lock is
// taken quickly) while the line it will write is owned remotely (so the
// pending write is still in flight when the other core's RMW locks it).
// The final fences force each core to wait for its write buffer, which can
// never drain if the deadlock manifests.
func fig10Trace() *Trace {
	const lineA, lineB = 0x10000, 0x20000
	tr := NewTrace("fig10", 2)
	// Warm-up: core 0 owns B, core 1 owns A.
	tr.Append(0, RMW(lineB), Compute(5000))
	tr.Append(1, RMW(lineA), Compute(5000))
	// Fig. 10 proper: W(x); RMW(y)  ||  W(y); RMW(x).
	tr.Append(0, Write(lineA), RMW(lineB), Fence(), Compute(1))
	tr.Append(1, Write(lineB), RMW(lineA), Fence(), Compute(1))
	return tr
}

func TestWriteDeadlockWithoutAvoidance(t *testing.T) {
	// With the bloom-filter protocol disabled the naive type-2
	// implementation deadlocks on the Fig. 10 pattern; with it enabled the
	// same trace completes.
	naive := testConfig().WithRMWType(core.Type2)
	naive.DisableDeadlockAvoidance = true
	naive.MaxCycles = 1_000_000
	res, err := mustSim(t, naive).Run(fig10Trace())
	if err != nil {
		t.Fatalf("naive run errored instead of reporting deadlock: %v", err)
	}
	if !res.Deadlocked {
		t.Fatal("naive type-2 implementation must deadlock on the Fig. 10 pattern")
	}

	safe := testConfig().WithRMWType(core.Type2)
	res2 := runTrace(t, safe, fig10Trace())
	if res2.Deadlocked {
		t.Fatal("bloom-filter deadlock avoidance failed on the Fig. 10 pattern")
	}
	// The avoidance mechanism works by reverting conflicting RMWs to a
	// write-buffer drain.
	if res2.RevertPercent() == 0 {
		t.Error("expected at least one RMW to revert to a drain under the Fig. 10 pattern")
	}
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestType3DeadlockAvoidanceAlsoWorks(t *testing.T) {
	res := runTrace(t, testConfig().WithRMWType(core.Type3), fig10Trace())
	if res.Deadlocked {
		t.Fatal("type-3 with deadlock avoidance must not deadlock")
	}
}

func TestType3NaiveAlsoDeadlocks(t *testing.T) {
	cfg := testConfig().WithRMWType(core.Type3)
	cfg.DisableDeadlockAvoidance = true
	cfg.MaxCycles = 1_000_000
	res, err := mustSim(t, cfg).Run(fig10Trace())
	if err != nil {
		t.Fatalf("naive type-3 run errored: %v", err)
	}
	if !res.Deadlocked {
		t.Fatal("naive type-3 implementation must also deadlock on the Fig. 10 pattern")
	}
}

// TestAvgRMWCostCountsCompletedRMWs strands an RMW behind the Fig. 10
// deadlock: core 2's RMW of line A waits forever for the lock that core
// 1's stuck write half holds. Five RMWs are dispatched but only four
// complete, and the average cost is over the four whose costs were
// recorded.
func TestAvgRMWCostCountsCompletedRMWs(t *testing.T) {
	const lineA, lineB = 0x10000, 0x20000
	for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
		tr := NewTrace("fig10-stranded", 4)
		tr.Append(0, RMW(lineB), Compute(5000))
		tr.Append(1, RMW(lineA), Compute(5000))
		tr.Append(0, Write(lineA), RMW(lineB), Fence(), Compute(1))
		tr.Append(1, Write(lineB), RMW(lineA), Fence(), Compute(1))
		tr.Append(2, Compute(8000), RMW(lineA), Compute(1))
		cfg := testConfig().WithRMWType(typ)
		cfg.DisableDeadlockAvoidance = true
		cfg.MaxCycles = 1_000_000
		res, err := mustSim(t, cfg).Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if !res.Deadlocked {
			t.Fatalf("%s: the stranded trace must deadlock", typ)
		}
		var completed uint64
		for _, c := range res.PerCore {
			completed += c.RMWsCompleted
		}
		if res.TotalRMWs() != 5 || completed != 4 {
			t.Errorf("%s: %d RMWs dispatched, %d completed; want 5 and 4", typ, res.TotalRMWs(), completed)
		}
		wb, rw, total := res.AvgRMWCost()
		if wb != 0 || rw != 165.5 || total != 165.5 {
			t.Errorf("%s: AvgRMWCost = (%v, %v, %v), want (0, 165.5, 165.5)", typ, wb, rw, total)
		}
	}
}

func TestAllTypesOnOneTrace(t *testing.T) {
	trace := NewTrace("all-types", 2)
	trace.Append(0, Write(0x1200), RMW(0x1300), Read(0x1400))
	trace.Append(1, RMW(0x1300), Write(0x1400))
	for _, typ := range core.AllTypes() {
		res := runTrace(t, testConfig().WithRMWType(typ), trace)
		if res.RMWType != typ {
			t.Errorf("result labelled %s, want %s", res.RMWType, typ)
		}
		if res.TotalRMWs() != 2 {
			t.Errorf("%s: RMWs = %d, want 2", typ, res.TotalRMWs())
		}
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	cfg := testConfig().WithRMWType(core.Type2)
	trace := NewTrace("metrics", 1)
	trace.Append(0, Read(0x40), Write(0x80), RMW(0xc0), RMW(0xc0), Compute(5))
	res := runTrace(t, cfg, trace)
	if got := res.RMWsPer1000MemOps(); got != 500 {
		t.Errorf("RMWsPer1000MemOps = %.1f, want 500 (2 of 4 memops)", got)
	}
	if got := res.UniqueRMWPercent(); got != 50 {
		t.Errorf("UniqueRMWPercent = %.1f, want 50", got)
	}
	if res.RMWOverheadPercent() <= 0 || res.RMWOverheadPercent() > 100 {
		t.Errorf("RMWOverheadPercent = %.1f out of range", res.RMWOverheadPercent())
	}
	if res.String() == "" {
		t.Error("Result.String empty")
	}
	// Zero-value result metrics must not divide by zero.
	empty := &Result{}
	if empty.RMWsPer1000MemOps() != 0 || empty.UniqueRMWPercent() != 0 ||
		empty.RevertPercent() != 0 || empty.BroadcastsPer100RMWs() != 0 ||
		empty.RMWOverheadPercent() != 0 {
		t.Error("empty result metrics should be zero")
	}
	wb, rw, total := empty.AvgRMWCost()
	if wb != 0 || rw != 0 || total != 0 {
		t.Error("empty result RMW cost should be zero")
	}
}

func TestIdleCoresDoNotAffectResults(t *testing.T) {
	cfg := testConfig()
	trace := NewTrace("idle", 1) // only core 0 has work; cores 1-3 idle
	trace.Append(0, Compute(10))
	res := runTrace(t, cfg, trace)
	if res.Cycles != 10 {
		t.Errorf("Cycles = %d, want 10", res.Cycles)
	}
	if res.RMWOverheadPercent() != 0 {
		t.Error("idle cores should not contribute RMW overhead")
	}
}
