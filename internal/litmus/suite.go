package litmus

import (
	"repro/internal/core"
	"repro/internal/memmodel"
)

// Locations used by the suite, named per the paper's figures.
const (
	locX  memmodel.Addr = 0 // x
	locY  memmodel.Addr = 1 // y
	locZ  memmodel.Addr = 2 // z / z1
	locZ2 memmodel.Addr = 3 // z2
)

// expect builds the Expected map from the per-type truth values.
func expect(t1, t2, t3 bool) map[core.AtomicityType]bool {
	return map[core.AtomicityType]bool{core.Type1: t1, core.Type2: t2, core.Type3: t3}
}

// StoreBuffering is the classic SB test: TSO allows both reads to see the
// initial values, regardless of RMW atomicity (no RMWs involved).
func StoreBuffering() *Test {
	p := memmodel.NewProgram("SB")
	p.AddThread(memmodel.Write(locX, 1), memmodel.Read(locY, "r0"))
	p.AddThread(memmodel.Write(locY, 1), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "SB",
		Doc:      "store buffering: TSO allows r0=0 and r1=0",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(true, true, true),
	}
}

// StoreBufferingFences is SB with mfence between each write and read: the
// relaxed outcome is forbidden.
func StoreBufferingFences() *Test {
	p := memmodel.NewProgram("SB+fences")
	p.AddThread(memmodel.Write(locX, 1), memmodel.Fence(), memmodel.Read(locY, "r0"))
	p.AddThread(memmodel.Write(locY, 1), memmodel.Fence(), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "SB+fences",
		Doc:      "store buffering with barriers: the relaxed outcome is forbidden",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// MessagePassing is the MP test: TSO forbids observing the flag without the
// data.
func MessagePassing() *Test {
	p := memmodel.NewProgram("MP")
	p.AddThread(memmodel.Write(locX, 1), memmodel.Write(locY, 1))
	p.AddThread(memmodel.Read(locY, "r0"), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "MP",
		Doc:      "message passing: TSO forbids flag=1 with data=0",
		Program:  p,
		Cond:     ExistsCond(RegTerm(1, "r0", 1), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// LoadBuffering is the LB test: forbidden on TSO (reads are not reordered
// with later writes).
func LoadBuffering() *Test {
	p := memmodel.NewProgram("LB")
	p.AddThread(memmodel.Read(locX, "r0"), memmodel.Write(locY, 1))
	p.AddThread(memmodel.Read(locY, "r1"), memmodel.Write(locX, 1))
	return &Test{
		Name:     "LB",
		Doc:      "load buffering: TSO forbids both reads observing the other thread's write",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 1), RegTerm(1, "r1", 1)),
		Expected: expect(false, false, false),
	}
}

// CoRR checks coherence of read-read pairs: a thread must not observe two
// writes to the same location in the opposite of coherence order.
func CoRR() *Test {
	p := memmodel.NewProgram("CoRR")
	p.AddThread(memmodel.Write(locX, 1), memmodel.Write(locX, 2))
	p.AddThread(memmodel.Read(locX, "r0"), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "CoRR",
		Doc:      "coherence: reads of one location must respect coherence order",
		Program:  p,
		Cond:     ExistsCond(RegTerm(1, "r0", 2), RegTerm(1, "r1", 1)),
		Expected: expect(false, false, false),
	}
}

// DekkerWriteReplacement is Fig. 3: the writes of Dekker's algorithm
// replaced by RMWs. The mutual-exclusion-failure outcome (both observation
// reads 0) is forbidden for type-1/2 and allowed for type-3.
func DekkerWriteReplacement() *Test {
	p := memmodel.NewProgram("dekker-write-replacement")
	p.AddThread(memmodel.Exchange(locX, "a0", 1), memmodel.Read(locY, "r0"))
	p.AddThread(memmodel.Exchange(locY, "a1", 1), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "dekker-write-replacement (Fig. 3)",
		Doc:      "Dekker's with writes replaced by RMWs: works for type-1/2, fails for type-3",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, true),
	}
}

// DekkerReadReplacement is Fig. 4: the reads of Dekker's algorithm replaced
// by RMWs (lock xadd(0)). Works for all three atomicity types.
func DekkerReadReplacement() *Test {
	p := memmodel.NewProgram("dekker-read-replacement")
	p.AddThread(memmodel.Write(locX, 1), memmodel.FetchAdd(locY, "r0", 0))
	p.AddThread(memmodel.Write(locY, 1), memmodel.FetchAdd(locX, "r1", 0))
	return &Test{
		Name:     "dekker-read-replacement (Fig. 4)",
		Doc:      "Dekker's with reads replaced by RMWs: works for all atomicity types",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// DekkerRMWBarrierDifferentAddr is Fig. 5: RMWs to distinct scratch
// locations z1, z2 used in place of the barriers of Dekker's algorithm.
// Only type-1 RMWs order like a barrier.
func DekkerRMWBarrierDifferentAddr() *Test {
	p := memmodel.NewProgram("dekker-rmw-barrier")
	p.AddThread(memmodel.Write(locX, 1), memmodel.Exchange(locZ, "a0", 1), memmodel.Read(locY, "r0"))
	p.AddThread(memmodel.Write(locY, 1), memmodel.Exchange(locZ2, "a1", 1), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "dekker-rmw-as-barrier (Fig. 5)",
		Doc:      "RMWs to different addresses used as barriers: only type-1 forbids the relaxed outcome",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, true, true),
	}
}

// DekkerRMWBarrierSameAddr is Fig. 8: both barrier RMWs access the same
// location z, forcing them to synchronize; all three types forbid the
// relaxed outcome.
func DekkerRMWBarrierSameAddr() *Test {
	p := memmodel.NewProgram("dekker-rmw-barrier-same")
	p.AddThread(memmodel.Write(locX, 1), memmodel.FetchAdd(locZ, "a0", 1), memmodel.Read(locY, "r0"))
	p.AddThread(memmodel.Write(locY, 1), memmodel.FetchAdd(locZ, "a1", 1), memmodel.Read(locX, "r1"))
	return &Test{
		Name:     "dekker-rmw-as-barrier-same-address (Fig. 8)",
		Doc:      "barrier RMWs forced to synchronize on one address: all types forbid the relaxed outcome",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// WriteDeadlock is the Fig. 10 program whose naive type-2/3 implementation
// can deadlock in hardware: each thread writes one location and then RMWs
// the other. The both-RMWs-read-zero outcome corresponds to the cyclic
// dependency of Fig. 10(b) and is forbidden semantically under every
// atomicity type -- which is exactly why a naive implementation that locks
// the cache line before its earlier write has completed ends up waiting
// forever trying to realise it. The bloom-filter mechanism of §3.2 avoids
// the implementation deadlock while preserving this semantics.
func WriteDeadlock() *Test {
	p := memmodel.NewProgram("fig10-write-deadlock")
	p.AddThread(memmodel.Write(locX, 1), memmodel.FetchAdd(locY, "r0", 0))
	p.AddThread(memmodel.Write(locY, 1), memmodel.FetchAdd(locX, "r1", 0))
	return &Test{
		Name:     "write-deadlock (Fig. 10)",
		Doc:      "the program whose naive type-2/3 implementation deadlocks; the cyclic outcome is forbidden",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// TASLock models two threads racing to acquire a test-and-set lock: both
// acquiring (both reading 0) is forbidden under every atomicity type.
func TASLock() *Test {
	p := memmodel.NewProgram("tas-lock")
	p.AddThread(memmodel.TestAndSet(locX, "r0"))
	p.AddThread(memmodel.TestAndSet(locX, "r1"))
	return &Test{
		Name:     "tas-lock-race",
		Doc:      "two test-and-sets on one lock word: both must not win, under any atomicity type",
		Program:  p,
		Cond:     ExistsCond(RegTerm(0, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// FetchAddCounter checks that two concurrent fetch-and-adds always sum: the
// final counter value is 2 in every valid execution of every type.
func FetchAddCounter() *Test {
	p := memmodel.NewProgram("faa-counter")
	p.AddThread(memmodel.FetchAdd(locX, "r0", 1))
	p.AddThread(memmodel.FetchAdd(locX, "r1", 1))
	return &Test{
		Name:     "faa-counter",
		Doc:      "concurrent fetch-and-adds never lose updates, under any atomicity type",
		Program:  p,
		Cond:     ForallCond(MemTerm(locX, 2)),
		Expected: expect(true, true, true),
	}
}

// SpinlockHandoff models a lock release (plain store) observed by a
// spinning RMW acquire on another thread: if the acquire sees the release,
// it must also see the data written inside the critical section.
func SpinlockHandoff() *Test {
	p := memmodel.NewProgram("spinlock-handoff")
	// P0: data = 1; unlock (lock = 0).
	p.AddThread(memmodel.Write(locY, 1), memmodel.Write(locX, 0))
	// P1: acquire: RMW on lock observing 0 (free); then read data.
	p.AddThread(memmodel.TestAndSet(locX, "r0"), memmodel.Read(locY, "r1"))
	p.SetInit(locX, 1) // lock initially held by P0
	return &Test{
		Name:     "spinlock-handoff",
		Doc:      "an RMW acquire that observes the unlock must also observe the protected data",
		Program:  p,
		Cond:     ExistsCond(RegTerm(1, "r0", 0), RegTerm(1, "r1", 0)),
		Expected: expect(false, false, false),
	}
}

// init registers the built-in suite: the paper's figures in figure order,
// then the classic TSO sanity tests and RMW idioms. New scenarios join the
// suite by calling Register; nothing else needs wiring.
func init() {
	Register(GroupPaper, "dekker-write-replacement (Fig. 3)", DekkerWriteReplacement)
	Register(GroupPaper, "dekker-read-replacement (Fig. 4)", DekkerReadReplacement)
	Register(GroupPaper, "dekker-rmw-as-barrier (Fig. 5)", DekkerRMWBarrierDifferentAddr)
	Register(GroupPaper, "dekker-rmw-as-barrier-same-address (Fig. 8)", DekkerRMWBarrierSameAddr)
	Register(GroupPaper, "write-deadlock (Fig. 10)", WriteDeadlock)

	Register(GroupClassic, "SB", StoreBuffering)
	Register(GroupClassic, "SB+fences", StoreBufferingFences)
	Register(GroupClassic, "MP", MessagePassing)
	Register(GroupClassic, "LB", LoadBuffering)
	Register(GroupClassic, "CoRR", CoRR)
	Register(GroupClassic, "tas-lock-race", TASLock)
	Register(GroupClassic, "faa-counter", FetchAddCounter)
	Register(GroupClassic, "spinlock-handoff", SpinlockHandoff)
}

// PaperSuite returns the litmus tests taken directly from the paper's
// figures, in figure order.
func PaperSuite() []*Test { return ByGroup(GroupPaper) }

// ClassicSuite returns RMW-free TSO sanity tests plus common RMW idioms.
func ClassicSuite() []*Test { return ByGroup(GroupClassic) }

// AllTests returns the full registered suite in registration order: paper
// figures first, then classic tests, then any tests registered by other
// packages.
func AllTests() []*Test {
	var out []*Test
	for _, name := range Names() {
		out = append(out, Build(name))
	}
	return out
}

// FindTest returns the test with the given name (registry name or program
// name) from the registered suite, or nil.
func FindTest(name string) *Test {
	if t := Build(name); t != nil {
		return t
	}
	for _, t := range AllTests() {
		if t.Name == name || t.Program.Name == name {
			return t
		}
	}
	return nil
}
