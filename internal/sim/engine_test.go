package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// drain pops every event of q, letting each popped event schedule more
// through also, and returns the events in pop order.
func drain(q *calendar, also func(ev event)) []event {
	var out []event
	for {
		ev, ok := q.pop()
		if !ok {
			return out
		}
		out = append(out, ev)
		if also != nil {
			also(ev)
		}
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	q := newCalendar()
	q.push(10, evStep, 0, 2)
	q.push(5, evStep, 0, 1)
	q.push(20, evStep, 0, 3)
	got := drain(&q, nil)
	if len(got) != 3 || got[0].arg != 1 || got[1].arg != 2 || got[2].arg != 3 {
		t.Errorf("execution order = %v", got)
	}
	if q.now != 20 {
		t.Errorf("now = %d, want 20", q.now)
	}
	if _, ok := q.pop(); ok {
		t.Error("a drained queue must stay empty")
	}
}

func TestEngineTiesBreakByScheduleOrder(t *testing.T) {
	q := newCalendar()
	for i := 0; i < 5; i++ {
		q.push(7, evStep, 0, uint64(i))
	}
	for i, ev := range drain(&q, nil) {
		if ev.arg != uint64(i) {
			t.Fatalf("tie-breaking not FIFO: event %d has arg %d", i, ev.arg)
		}
	}
}

func TestEngineEventsCanScheduleMoreEvents(t *testing.T) {
	q := newCalendar()
	q.push(0, evStep, 0, 0)
	got := drain(&q, func(ev event) {
		if ev.arg < 9 {
			q.push(q.now+3, evStep, 0, ev.arg+1)
		}
		if ev.arg == 4 {
			// The current cycle's bucket grows while it is consumed.
			q.push(q.now, evRMWDone, 0, 100)
		}
	})
	if len(got) != 11 {
		t.Fatalf("ran %d events, want 11", len(got))
	}
	if got[5].kind != evRMWDone || got[5].at != got[4].at {
		t.Errorf("an event scheduled at the current cycle ran as %+v, want right after %+v", got[5], got[4])
	}
	if q.now != 27 {
		t.Errorf("now = %d, want 27", q.now)
	}
}

// TestCalendarOrderAcrossWindowBoundary checks the calendar against a
// plain sort by (cycle, schedule order) on a random schedule whose delays
// straddle the bucket window, so events reach their cycle both through a
// bucket and through the far heap, often for the same cycle.
func TestCalendarOrderAcrossWindowBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delays := []uint64{0, 1, 2, window - 1, window, window + 1, 2*window + 5, 300, 3 * window}
	q := newCalendar()
	var all []event
	push := func(at uint64) {
		all = append(all, event{at: at, seq: q.seq})
		q.push(at, evStep, 0, q.seq)
	}
	for i := 0; i < 20; i++ {
		push(delays[rng.Intn(len(delays))])
	}
	got := drain(&q, func(ev event) {
		if len(all) < 20000 {
			for n := rng.Intn(3); n > 0; n-- {
				push(ev.at + delays[rng.Intn(len(delays))])
			}
		}
	})
	sort.Slice(all, func(i, j int) bool { return all[i].before(all[j]) })
	if len(got) != len(all) {
		t.Fatalf("popped %d events, scheduled %d", len(got), len(all))
	}
	for i := range all {
		if got[i].at != all[i].at || got[i].arg != all[i].seq {
			t.Fatalf("event %d: popped (at %d, seq %d), want (at %d, seq %d)", i, got[i].at, got[i].arg, all[i].at, all[i].seq)
		}
	}
}

func TestEngineCycleLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 150
	tr := NewTrace("spin", 1)
	tr.Append(0, Compute(100), Compute(100), Compute(100))
	res, err := mustSim(t, cfg).Run(tr)
	if err == nil || !strings.Contains(err.Error(), "cycle limit 150 exceeded at cycle 200") {
		t.Fatalf("exceeding the cycle limit must return an error, got %v", err)
	}
	if res == nil || res.PerCore[0].Computes != 2 {
		t.Error("the run must stop at the first event past the limit")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	q := newCalendar()
	q.push(10, evStep, 0, 0)
	q.pop()
	defer func() {
		if recover() == nil {
			t.Error("scheduling before now should panic")
		}
	}()
	q.push(5, evStep, 0, 0)
}

func TestEngineRunEmptyQueue(t *testing.T) {
	e := &engine{q: newCalendar()}
	if err := e.run(10); err != nil {
		t.Fatal("running an empty engine should succeed")
	}
}

func TestOpConstructorsAndKinds(t *testing.T) {
	if Compute(5).Kind != OpCompute || Compute(5).Think != 5 {
		t.Error("Compute constructor wrong")
	}
	if Read(0x40).Kind != OpRead || Read(0x40).Addr != 0x40 {
		t.Error("Read constructor wrong")
	}
	if Write(0x80).Kind != OpWrite {
		t.Error("Write constructor wrong")
	}
	if RMW(0xc0).Kind != OpRMW {
		t.Error("RMW constructor wrong")
	}
	if Fence().Kind != OpFence {
		t.Error("Fence constructor wrong")
	}
	if !OpRead.IsMemory() || !OpWrite.IsMemory() || !OpRMW.IsMemory() {
		t.Error("memory kinds misclassified")
	}
	if OpCompute.IsMemory() || OpFence.IsMemory() {
		t.Error("non-memory kinds misclassified")
	}
	names := map[OpKind]string{OpCompute: "compute", OpRead: "read", OpWrite: "write", OpRMW: "rmw", OpFence: "fence"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if OpKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := NewTrace("t", 2)
	tr.Append(0, Read(0), Write(64), RMW(128), Compute(10))
	tr.Append(1, RMW(128), Fence())
	if tr.Cores() != 2 || tr.TotalOps() != 6 {
		t.Errorf("Cores=%d TotalOps=%d", tr.Cores(), tr.TotalOps())
	}
	if tr.MemOps() != 4 {
		t.Errorf("MemOps = %d, want 4", tr.MemOps())
	}
	if tr.CountKind(OpRMW) != 2 || tr.CountKind(OpFence) != 1 {
		t.Error("CountKind wrong")
	}
	if tr.UniqueRMWLines(64) != 1 {
		t.Errorf("UniqueRMWLines = %d, want 1", tr.UniqueRMWLines(64))
	}
	cfg := DefaultConfig().WithCores(2)
	if err := tr.Validate(cfg); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := NewTrace("empty", 0).Validate(cfg); err == nil {
		t.Error("trace with no cores must not validate")
	}
	big := NewTrace("big", 4)
	if err := big.Validate(cfg); err == nil {
		t.Error("trace with more cores than the config must not validate")
	}
}

func TestConfigValidateAndHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := cfg.WithCores(1024).Validate(); err != nil {
		t.Errorf("1,024-core config invalid: %v", err)
	}
	if cfg.Cores != 32 || cfg.WriteBufferDepth != 32 || cfg.MemLatencyCycles != 300 {
		t.Error("default config does not match Table 2")
	}
	if cfg.LineOf(130) != 2 {
		t.Errorf("LineOf(130) = %d, want 2", cfg.LineOf(130))
	}
	if len(cfg.Table2()) < 7 {
		t.Error("Table2 rendering too short")
	}

	bad := []func(Config) Config{
		func(c Config) Config { c.Cores = 0; return c },
		func(c Config) Config { c.Cores = 1025; return c },
		func(c Config) Config { c.WriteBufferDepth = 0; return c },
		func(c Config) Config { c.L1SizeBytes = 0; return c },
		func(c Config) Config { c.L1SizeBytes = 1000; return c },
		func(c Config) Config { c.RMWType = 0; return c },
		func(c Config) Config { c.BloomFilterBits = 0; return c },
		func(c Config) Config { c.MaxCycles = 0; return c },
	}
	for i, mutate := range bad {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
