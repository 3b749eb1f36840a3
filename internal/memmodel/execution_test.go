package memmodel

import (
	"strings"
	"testing"
)

// firstExec enumerates the program and returns one execution satisfying the
// predicate, failing the test if none exists.
func firstExec(t *testing.T, p *Program, pred func(*Execution) bool) *Execution {
	t.Helper()
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	for _, x := range execs {
		if pred(x) {
			return x
		}
	}
	t.Fatal("no execution satisfies predicate")
	return nil
}

func anyExec(t *testing.T, p *Program) *Execution {
	t.Helper()
	return firstExec(t, p, func(*Execution) bool { return true })
}

func TestPOOrdersThreadEventsAndInits(t *testing.T) {
	x := anyExec(t, storeBuffering())
	po := x.PO()
	var w0, r0 *Event
	for _, e := range x.Events {
		if e.Thread == 0 && e.Kind == KindWrite {
			w0 = e
		}
		if e.Thread == 0 && e.Kind == KindRead {
			r0 = e
		}
	}
	if !po.Has(w0.Index, r0.Index) {
		t.Error("po must order P0's write before P0's read")
	}
	if po.Has(r0.Index, w0.Index) {
		t.Error("po must not order P0's read before P0's write")
	}
	for _, e := range x.Events {
		if e.IsInit() && !po.Has(e.Index, w0.Index) {
			t.Error("init writes must precede all thread events")
		}
	}
	// Cross-thread events are unordered by po.
	var w1 *Event
	for _, e := range x.Events {
		if e.Thread == 1 && e.Kind == KindWrite {
			w1 = e
		}
	}
	if po.Has(w0.Index, w1.Index) || po.Has(w1.Index, w0.Index) {
		t.Error("po must not relate events of different threads")
	}
}

func TestPPORelaxesWriteToRead(t *testing.T) {
	x := anyExec(t, storeBuffering())
	ppo := x.PPO()
	var w0, r0 *Event
	for _, e := range x.Events {
		if e.Thread == 0 && e.Kind == KindWrite {
			w0 = e
		}
		if e.Thread == 0 && e.Kind == KindRead {
			r0 = e
		}
	}
	if ppo.Has(w0.Index, r0.Index) {
		t.Error("TSO ppo must not order a write before a program-order-later read")
	}
}

func TestPPOPreservesOtherOrders(t *testing.T) {
	p := NewProgram("orders")
	p.AddThread(Read(0, "r1"), Write(1, 1), Write(2, 1), Read(2, "r2"))
	x := anyExec(t, p)
	ppo := x.PPO()
	events := x.EventsByThread(0)
	// R->W, W->W, W->R(same location? no: W(z) then R(z) is also W->R and
	// relaxed), R->R orders.
	find := func(kind EventKind, addr Addr) *Event {
		for _, e := range events {
			if e.Kind == kind && e.Addr == addr {
				return e
			}
		}
		t.Fatalf("missing event %v(%v)", kind, addr)
		return nil
	}
	r1 := find(KindRead, 0)
	w1 := find(KindWrite, 1)
	w2 := find(KindWrite, 2)
	r2 := find(KindRead, 2)
	if !ppo.Has(r1.Index, w1.Index) {
		t.Error("R->W must be preserved")
	}
	if !ppo.Has(w1.Index, w2.Index) {
		t.Error("W->W must be preserved")
	}
	if !ppo.Has(r1.Index, r2.Index) {
		t.Error("R->R must be preserved")
	}
	if ppo.Has(w2.Index, r2.Index) {
		t.Error("W->R must be relaxed even to the same location")
	}
}

func TestPPOPreservesRMWInternalOrder(t *testing.T) {
	p := NewProgram("rmw-internal")
	p.AddThread(Exchange(0, "r1", 1))
	x := anyExec(t, p)
	ppo := x.PPO()
	var ra, wa *Event
	for _, e := range x.Events {
		if e.Kind == KindRMWRead {
			ra = e
		}
		if e.Kind == KindRMWWrite {
			wa = e
		}
	}
	if !ppo.Has(ra.Index, wa.Index) {
		t.Error("Ra -> Wa of one RMW must be in ppo")
	}
}

func TestBarOrdersAcrossFence(t *testing.T) {
	p := NewProgram("fenced-sb")
	p.AddThread(Write(0, 1), Fence(), Read(1, "r1"))
	x := anyExec(t, p)
	bar := x.Bar()
	var w, r *Event
	for _, e := range x.Events {
		if e.Kind == KindWrite {
			w = e
		}
		if e.Kind == KindRead {
			r = e
		}
	}
	if !bar.Has(w.Index, r.Index) {
		t.Error("bar must order the write before the read across the fence")
	}
	// No fence between init and the write, and bar never includes the fence
	// itself.
	for _, e := range x.Events {
		if e.IsFence() {
			for _, o := range x.Events {
				if bar.Has(e.Index, o.Index) || bar.Has(o.Index, e.Index) {
					t.Error("fence events must not appear in bar")
				}
			}
		}
	}
}

func TestWSRelAndFR(t *testing.T) {
	p := NewProgram("ws-fr")
	p.AddThread(Write(0, 1))
	p.AddThread(Read(0, "r1"))
	// Choose the execution where the read reads the initial value 0; then fr
	// orders it before the write of 1.
	x := firstExec(t, p, func(x *Execution) bool {
		return x.RegisterValues()["P1:r1"] == 0
	})
	var w, r, init *Event
	for _, e := range x.Events {
		switch {
		case e.Kind == KindWrite:
			w = e
		case e.Kind == KindRead:
			r = e
		case e.IsInit():
			init = e
		}
	}
	if !x.WSRel().Has(init.Index, w.Index) {
		t.Error("ws must order the initial write before the later write")
	}
	if !x.FR().Has(r.Index, w.Index) {
		t.Error("fr must order the read (of the init value) before the write")
	}
	if !x.RFE().Has(init.Index, r.Index) {
		t.Error("reading the initial value is an external rf")
	}
}

func TestRFEExcludesInternalRF(t *testing.T) {
	p := NewProgram("internal-rf")
	p.AddThread(Write(0, 1), Read(0, "r1"))
	// Execution where the read reads the thread's own write.
	x := firstExec(t, p, func(x *Execution) bool {
		return x.RegisterValues()["P0:r1"] == 1
	})
	var w, r *Event
	for _, e := range x.Events {
		if e.Kind == KindWrite {
			w = e
		}
		if e.Kind == KindRead {
			r = e
		}
	}
	if !x.RFRel().Has(w.Index, r.Index) {
		t.Fatal("rf missing")
	}
	if x.RFE().Has(w.Index, r.Index) {
		t.Error("same-thread rf must not be in rfe")
	}
}

func TestUniprocRejectsStaleSameThreadRead(t *testing.T) {
	// A thread writes 1 to x and then reads x: reading the initial value 0
	// violates uniproc (CoWR shape).
	p := NewProgram("cowr")
	p.AddThread(Write(0, 1), Read(0, "r1"))
	stale := firstExec(t, p, func(x *Execution) bool {
		return x.RegisterValues()["P0:r1"] == 0
	})
	if stale.Uniproc() {
		t.Error("reading a stale value past the own write must violate uniproc")
	}
	fresh := firstExec(t, p, func(x *Execution) bool {
		return x.RegisterValues()["P0:r1"] == 1
	})
	if !fresh.Uniproc() {
		t.Error("reading the own write must satisfy uniproc")
	}
}

// baseValid reports whether x is valid in the base TSO model: it
// satisfies uniproc and com ∪ ppo ∪ bar is acyclic.
func baseValid(x *Execution) bool {
	var r Relation
	return x.Uniproc() && x.BaseClosure(&r)
}

func TestBaseValidAllowsSBRelaxedOutcome(t *testing.T) {
	// The r1=0, r2=0 outcome of SB is TSO-allowed (store buffering).
	execs, err := Enumerate(storeBuffering())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range execs {
		regs := x.RegisterValues()
		if regs["P0:r1"] == 0 && regs["P1:r2"] == 0 && baseValid(x) {
			found = true
		}
	}
	if !found {
		t.Error("TSO must allow the store-buffering outcome r1=0, r2=0")
	}
}

func TestBaseValidForbidsFencedSB(t *testing.T) {
	p := NewProgram("SB+fences")
	p.AddThread(Write(0, 1), Fence(), Read(1, "r1"))
	p.AddThread(Write(1, 1), Fence(), Read(0, "r2"))
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range execs {
		regs := x.RegisterValues()
		if regs["P0:r1"] == 0 && regs["P1:r2"] == 0 && baseValid(x) {
			t.Fatal("fenced SB must forbid r1=0, r2=0")
		}
	}
}

func TestBaseValidForbidsMPReordering(t *testing.T) {
	// MP: flag read 1 but data read 0 must be forbidden under TSO.
	execs, err := Enumerate(messagePassing())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range execs {
		regs := x.RegisterValues()
		if regs["P1:r1"] == 1 && regs["P1:r2"] == 0 && baseValid(x) {
			t.Fatal("TSO must forbid MP reordering (flag=1, data=0)")
		}
	}
}

func TestGHBIsLinearExtension(t *testing.T) {
	x := anyExec(t, storeBuffering())
	order := x.BaseOrder()
	if !order.Acyclic() {
		t.Skip("picked an invalid candidate")
	}
	ghb, err := x.GHB(order)
	if err != nil {
		t.Fatalf("GHB: %v", err)
	}
	if len(ghb) != len(x.Events) {
		t.Fatalf("GHB has %d events, want %d", len(ghb), len(x.Events))
	}
	pos := map[int]int{}
	for i, e := range ghb {
		pos[e.Index] = i
	}
	for _, pr := range order.Pairs() {
		if pos[pr[0]] >= pos[pr[1]] {
			t.Errorf("GHB violates order edge %v -> %v", x.Events[pr[0]], x.Events[pr[1]])
		}
	}
}

func TestEventsByThreadAndFindEvent(t *testing.T) {
	x := anyExec(t, storeBuffering())
	t0 := x.EventsByThread(0)
	if len(t0) != 2 {
		t.Fatalf("thread 0 has %d events, want 2", len(t0))
	}
}

func TestExecutionString(t *testing.T) {
	x := anyExec(t, storeBuffering())
	s := x.String()
	for _, part := range []string{"events:", "rf:", "ws:"} {
		if !strings.Contains(s, part) {
			t.Errorf("Execution.String missing %q section", part)
		}
	}
}

// TestExecutionStringDeterministic pins the exact rendering of a
// hand-built SB execution: reads in event-index order, locations in
// ascending order. The execution is constructed through the map-edge
// constructor — the path whose map iteration order used to leak into the
// output — and rendered repeatedly to catch any residual nondeterminism.
func TestExecutionStringDeterministic(t *testing.T) {
	p := storeBuffering()
	events, err := buildEvents(p)
	if err != nil {
		t.Fatal(err)
	}
	// Events: [0] init x, [1] init y, [2] P0:W(x)=1, [3] P0:R(y),
	// [4] P1:W(y)=1, [5] P1:R(x). Both reads read the initial writes.
	x := NewExecution(p, events,
		map[int]int{3: 1, 5: 0},
		map[Addr][]int{0: {0, 2}, 1: {1, 4}})

	const wantString = `events:
  [0] init:Init(x)=0
  [1] init:Init(y)=0
  [2] P0:W(x)=1
  [3] P0:R(y)=0
  [4] P1:W(y)=1
  [5] P1:R(x)=0
rf:
  init:Init(y)=0 -> P0:R(y)=0
  init:Init(x)=0 -> P1:R(x)=0
ws:
  x: init:Init(x)=0 P0:W(x)=1
  y: init:Init(y)=0 P1:W(y)=1
`
	const wantKey = "rf: 3<-1 5<-0 ws: x=[0 2] y=[1 4] regs: P0:r1=0 P1:r2=0"

	for i := 0; i < 100; i++ {
		if got := x.String(); got != wantString {
			t.Fatalf("render %d:\n got %q\nwant %q", i, got, wantString)
		}
		if got := x.Key(); got != wantKey {
			t.Fatalf("key %d:\n got %q\nwant %q", i, got, wantKey)
		}
	}
}

func TestFinalMemory(t *testing.T) {
	p := NewProgram("final")
	p.AddThread(Write(0, 5))
	x := anyExec(t, p)
	mem := x.FinalMemory()
	if mem[0] != 5 {
		t.Fatalf("final x = %d, want 5", mem[0])
	}
}
