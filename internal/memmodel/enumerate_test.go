package memmodel

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// storeBuffering is the classic SB litmus test: two threads each write one
// location and read the other. TSO (without fences) allows both reads to
// return 0.
func storeBuffering() *Program {
	p := NewProgram("SB")
	p.AddThread(Write(0, 1), Read(1, "r1"))
	p.AddThread(Write(1, 1), Read(0, "r2"))
	return p
}

// messagePassing is the MP litmus test: thread 0 writes data then flag,
// thread 1 reads flag then data.
func messagePassing() *Program {
	p := NewProgram("MP")
	p.AddThread(Write(0, 1), Write(1, 1))
	p.AddThread(Read(1, "r1"), Read(0, "r2"))
	return p
}

func TestEnumerateCountsSB(t *testing.T) {
	p := storeBuffering()
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	// Each read has 2 candidate writes (init or the other thread's write);
	// each location has one non-init write so only one ws per location.
	want, err := CountCandidates(p)
	if err != nil {
		t.Fatalf("CountCandidates: %v", err)
	}
	if want != 4 {
		t.Fatalf("CountCandidates = %d, want 4", want)
	}
	if len(execs) != want {
		t.Fatalf("Enumerate produced %d executions, CountCandidates says %d", len(execs), want)
	}
}

func TestEnumerateEventConstruction(t *testing.T) {
	p := storeBuffering()
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	x := execs[0]
	// 2 init writes + 4 thread events.
	if len(x.Events) != 6 {
		t.Fatalf("event count = %d, want 6", len(x.Events))
	}
	inits := 0
	for _, e := range x.Events {
		if e.Index != indexOf(x, e) {
			t.Errorf("event %v Index field inconsistent", e)
		}
		if e.IsInit() {
			inits++
			if e.Thread != InitThread {
				t.Errorf("init event on thread %d", e.Thread)
			}
		}
	}
	if inits != 2 {
		t.Fatalf("init events = %d, want 2", inits)
	}
}

func indexOf(x *Execution, e *Event) int {
	for i, other := range x.Events {
		if other == e {
			return i
		}
	}
	return -1
}

func TestEnumerateValuePropagationPlainWrites(t *testing.T) {
	p := storeBuffering()
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	for _, x := range execs {
		for read, write := range x.RFMap() {
			if x.Events[read].Value != x.Events[write].Value {
				t.Fatalf("read %v does not carry the value of its rf source %v",
					x.Events[read], x.Events[write])
			}
			if x.Events[read].Addr != x.Events[write].Addr {
				t.Fatalf("rf pairs different locations: %v -> %v", x.Events[write], x.Events[read])
			}
		}
	}
}

func TestEnumerateRMWValuePropagation(t *testing.T) {
	// Single thread: fetch-add 1 twice on x starting from 0. In the unique
	// sequential execution the two RMWs must read 0,1 and write 1,2 -- but
	// enumeration also produces candidates where the second RMW reads from
	// init; those are pruned later by uniproc. Here we only check value
	// propagation of each candidate is internally consistent.
	p := NewProgram("faa-chain")
	p.AddThread(FetchAdd(0, "r1", 1), FetchAdd(0, "r2", 1))
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(execs) == 0 {
		t.Fatal("no candidates")
	}
	for _, x := range execs {
		for _, e := range x.Events {
			if e.Kind != KindRMWWrite {
				continue
			}
			// The Wa value must equal the value read by its Ra plus 1.
			var ra *Event
			for _, o := range x.Events {
				if o.Kind == KindRMWRead && o.SameRMW(e) {
					ra = o
				}
			}
			if ra == nil {
				t.Fatal("missing Ra for Wa")
			}
			if e.Value != ra.Value+1 {
				t.Errorf("Wa value %d, want Ra value %d + 1", e.Value, ra.Value)
			}
		}
	}
}

func TestEnumerateRMWNeverReadsOwnWrite(t *testing.T) {
	p := NewProgram("rmw-own")
	p.AddThread(Exchange(0, "r1", 1))
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	for _, x := range execs {
		for read, write := range x.RFMap() {
			if x.Events[read].SameRMW(x.Events[write]) {
				t.Fatal("Ra reads from its own Wa")
			}
		}
	}
}

func TestEnumerateInitialValues(t *testing.T) {
	p := NewProgram("init-values")
	p.SetInit(0, 42)
	p.AddThread(Read(0, "r1"))
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(execs) != 1 {
		t.Fatalf("%d executions, want 1", len(execs))
	}
	regs := execs[0].RegisterValues()
	if regs["P0:r1"] != 42 {
		t.Fatalf("read of initialized location = %d, want 42", regs["P0:r1"])
	}
}

func TestEnumerateRejectsInvalidProgram(t *testing.T) {
	p := NewProgram("bad")
	if _, err := Enumerate(p); err == nil {
		t.Fatal("Enumerate of an empty program must fail")
	}
}

func TestEnumerateWSPermutations(t *testing.T) {
	// Two writes to the same location from different threads: 2 coherence
	// orders.
	p := NewProgram("coww")
	p.AddThread(Write(0, 1))
	p.AddThread(Write(0, 2))
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(execs) != 2 {
		t.Fatalf("%d executions, want 2 (two ws orders)", len(execs))
	}
	finals := map[Value]bool{}
	for _, x := range execs {
		finals[x.FinalMemory()[0]] = true
	}
	if !finals[1] || !finals[2] {
		t.Fatalf("final values %v, want both 1 and 2 reachable", finals)
	}
}

func TestCountCandidatesMatchesEnumerate(t *testing.T) {
	programs := []*Program{storeBuffering(), messagePassing()}
	dekker := NewProgram("dekker-rmw")
	dekker.AddThread(Exchange(0, "a1", 1), Read(1, "r1"))
	dekker.AddThread(Exchange(1, "a2", 1), Read(0, "r2"))
	programs = append(programs, dekker)
	for _, p := range programs {
		execs, err := Enumerate(p)
		if err != nil {
			t.Fatalf("%s: Enumerate: %v", p.Name, err)
		}
		count, err := CountCandidates(p)
		if err != nil {
			t.Fatalf("%s: CountCandidates: %v", p.Name, err)
		}
		if len(execs) != count {
			t.Errorf("%s: Enumerate=%d CountCandidates=%d", p.Name, len(execs), count)
		}
	}
}

// TestEnumerateFuncMatchesEnumerate checks the streaming enumeration
// against the materializing one on Dekker's algorithm with its writes
// replaced by RMWs (the paper's Fig. 3), and its early-stop contract.
func TestEnumerateFuncMatchesEnumerate(t *testing.T) {
	p := NewProgram("dekker-write-replacement")
	p.AddThread(Exchange(0, "a0", 1), Read(1, "r0"))
	p.AddThread(Exchange(1, "a1", 1), Read(0, "r1"))
	all, err := Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	if err := EnumerateFunc(p, func(*Execution) bool {
		streamed++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != len(all) {
		t.Fatalf("streaming visited %d candidates, materializing returned %d", streamed, len(all))
	}

	visited := 0
	if err := EnumerateFunc(p, func(*Execution) bool {
		visited++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if visited != 1 {
		t.Fatalf("early-stopped enumeration visited %d candidates, want 1", visited)
	}
}

func TestPermutations(t *testing.T) {
	// Events: [0] init x, [1] init y, [2] P0:W(x)=1, [3] P0:W(x)=2,
	// [4] P0:R(y), [5] P1:W(x)=3.
	p := NewProgram("ws-orders")
	p.AddThread(Write(0, 1), Write(0, 2), Read(1, "r0"))
	p.AddThread(Write(0, 3))
	sp, err := newEnumSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	inv := newInvariantRels(sp.events)
	for _, tc := range []struct {
		loc   int
		poloc *Relation
		want  string
	}{
		// Every order of the non-initial writes, lexicographically.
		{0, nil, "[[0 2 3 5] [0 2 5 3] [0 3 2 5] [0 3 5 2] [0 5 2 3] [0 5 3 2]]"},
		// Only the orders that keep P0's two writes in program order.
		{0, &inv.poloc, "[[0 2 3 5] [0 2 5 3] [0 5 2 3]]"},
		// A location without other writes has the one order [init].
		{1, nil, "[[1]]"},
		{1, &inv.poloc, "[[1]]"},
	} {
		got := fmt.Sprint(wsOrders(sp.events, &sp.locs[tc.loc], tc.poloc))
		if got != tc.want {
			t.Errorf("wsOrders of %s (poloc %t) = %s, want %s", AddrName(sp.addrs[tc.loc]), tc.poloc != nil, got, tc.want)
		}
	}
}

func TestCountCandidatesRMWValueCycles(t *testing.T) {
	// Two test-and-sets on one location: the candidate where each Ra reads
	// from the other's Wa has a cyclic value dependency and is dropped by
	// assemble, so CountCandidates must not include it either.
	p := NewProgram("tas-race")
	p.AddThread(TestAndSet(0, "r0"))
	p.AddThread(TestAndSet(0, "r1"))
	execs, err := Enumerate(p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	count, err := CountCandidates(p)
	if err != nil {
		t.Fatalf("CountCandidates: %v", err)
	}
	if len(execs) != count {
		t.Fatalf("Enumerate=%d CountCandidates=%d; the cyclic rf assignment must be excluded from both", len(execs), count)
	}
	// Each Ra can read init or the other Wa (2x2 rf), with ws = 2
	// coherence orders; exactly one rf assignment (mutual reads) is
	// cyclic, leaving 3x2 = 6 candidates.
	if count != 6 {
		t.Fatalf("CountCandidates = %d, want 6", count)
	}
}

func TestCountCandidatesRejectsInvalidProgram(t *testing.T) {
	if _, err := CountCandidates(NewProgram("bad")); err == nil {
		t.Fatal("CountCandidates of an empty program must fail, like Enumerate")
	}
}

// TestEnumUniprocPrunesLargeSpace walks the pruned candidates of spaces
// no full walk could finish. With 62 reads of x in one thread and one
// write of x in another there are 2^62 candidates, of which exactly 63
// satisfy uniproc: the reads see the initial value up to some point in
// program order and the write from then on. With 70 reads and no write,
// the location has 71 events. With seven threads of one fetch-and-add of
// x each there are 8^6 × 7! = 1,321,205,760 candidates, of which only
// the 7! in which each RMW reads the ws-predecessor of its write half
// remain, one per ws order, each ending with x = 7.
func TestEnumUniprocPrunesLargeSpace(t *testing.T) {
	for _, tc := range []struct {
		reads, rmws int
		write       bool
		candidates  int
		uniproc     int
	}{
		{reads: 62, write: true, candidates: 1 << 62, uniproc: 63},
		{reads: 70, write: false, candidates: 1, uniproc: 1},
		{rmws: 7, candidates: 1_321_205_760, uniproc: 5_040},
	} {
		p := NewProgram("reads")
		if tc.reads > 0 {
			reads := make([]Instr, tc.reads)
			for i := range reads {
				reads[i] = Read(0, fmt.Sprintf("r%d", i))
			}
			p.AddThread(reads...)
		}
		if tc.write {
			p.AddThread(Write(0, 1))
		}
		for i := 0; i < tc.rmws; i++ {
			p.AddThread(FetchAdd(0, "r0", 1))
		}
		var candidates int
		visited := 0
		err := EnumerateFunc(p, func(x *Execution) bool {
			if !x.Uniproc() {
				t.Fatalf("%d reads, %d RMWs: the pruned walk visited a candidate that violates uniproc:\n%s", tc.reads, tc.rmws, x)
			}
			if tc.rmws > 0 && x.FinalMemory()[0] != Value(tc.rmws) {
				t.Fatalf("%d RMWs: the pruned walk visited a candidate that loses an update:\n%s", tc.rmws, x)
			}
			visited++
			return true
		}, EnumUniprocAdjacentRMW(), EnumCandidates(&candidates))
		if err != nil {
			t.Fatal(err)
		}
		if candidates != tc.candidates || visited != tc.uniproc {
			t.Errorf("%d reads, %d RMWs: %d candidates, %d visited; want %d and %d", tc.reads, tc.rmws, candidates, visited, tc.candidates, tc.uniproc)
		}
	}
}

// TestTableSearchPollsContext checks that the table search itself honours
// its context: with a context cancelled up front, building the walk of
// three threads that each store to and load x three times (1,824,912
// passing shares of one location) must fail with context.Canceled after
// a few hundred search nodes, long before the table is full. A walk
// checks its context too, so an end-to-end cancellation could not tell
// which of them stopped it.
func TestTableSearchPollsContext(t *testing.T) {
	p := NewProgram("storeloadx3")
	for th := 0; th < 3; th++ {
		var ins []Instr
		for k := 0; k < 3; k++ {
			ins = append(ins, Write(0, Value(3*th+k+1)), Read(0, fmt.Sprintf("r%d", k)))
		}
		p.AddThread(ins...)
	}
	sp, err := newEnumSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sp.buildWalk(ctx, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("buildWalk with a cancelled context: err = %v, want context.Canceled", err)
	}
	if n := len(sp.locs[0].table); n >= 10_000 {
		t.Errorf("the cancelled search recorded %d shares before it stopped, want fewer than 10,000", n)
	}
}
