package cpp11

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

func TestProgramValidate(t *testing.T) {
	ok := SCStoreBuffering()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	empty := NewProgram("empty")
	if err := empty.Validate(); err == nil {
		t.Error("empty program must not validate")
	}

	emptyThread := NewProgram("empty-thread")
	emptyThread.Threads = append(emptyThread.Threads, Thread{})
	if err := emptyThread.Validate(); err == nil {
		t.Error("empty thread must not validate")
	}

	noReg := NewProgram("no-reg")
	noReg.AddThread(Stmt{Kind: OpLoad, Order: OrderNA, Addr: locX})
	if err := noReg.Validate(); err == nil {
		t.Error("load without register must not validate")
	}

	dupReg := NewProgram("dup-reg")
	dupReg.AddThread(Load(locX, "r0"), Load(locY, "r0"))
	if err := dupReg.Validate(); err == nil {
		t.Error("duplicate register must not validate")
	}

	mixed := NewProgram("mixed")
	mixed.AddThread(SCStore(locX, 1), Load(locX, "r0"))
	if err := mixed.Validate(); err == nil {
		t.Error("mixing atomic and non-atomic accesses to one location must not validate")
	}
}

func TestProgramHelpers(t *testing.T) {
	p := MessagePassingSCFlag()
	atomic := p.AtomicLocations()
	if !atomic[locY] || atomic[locX] {
		t.Errorf("AtomicLocations = %v, want only y", atomic)
	}
	p.SetInit(locX, 7)
	if p.Init[locX] != 7 {
		t.Error("SetInit not applied")
	}
	s := p.String()
	if !strings.Contains(s, "seq_cst") || !strings.Contains(s, "thread") {
		t.Errorf("Program.String missing pieces:\n%s", s)
	}
}

func TestStmtString(t *testing.T) {
	cases := []struct {
		s    Stmt
		want string
	}{
		{SCLoad(locX, "r0"), "r0 = x.load(seq_cst)"},
		{SCStore(locX, 1), "x.store(1, seq_cst)"},
		{Load(locY, "r1"), "r1 = y"},
		{Store(locY, 2), "y = 2"},
	}
	for _, c := range cases {
		if c.s.String() != c.want {
			t.Errorf("String = %q, want %q", c.s.String(), c.want)
		}
	}
}

func TestMemoryOrderString(t *testing.T) {
	if OrderNA.String() != "na" || OrderSC.String() != "sc" {
		t.Error("memory order names wrong")
	}
	if MemoryOrder(7).String() == "" {
		t.Error("unknown order should render")
	}
}

// TestEnumerateBasic checks the size of the candidate space Analyze walks.
func TestEnumerateBasic(t *testing.T) {
	sem, err := Analyze(SCStoreBuffering())
	if err != nil {
		t.Fatal(err)
	}
	// 2 loads x 2 candidate stores each, one mo per location = 4 candidates.
	if sem.Candidates != 4 {
		t.Fatalf("candidates = %d, want 4", sem.Candidates)
	}
}

func TestEnumerateRejectsInvalidProgram(t *testing.T) {
	if _, err := Analyze(NewProgram("bad")); err == nil {
		t.Fatal("Analyze of invalid program must fail")
	}
	mixed := NewProgram("mixed")
	mixed.AddThread(SCStore(locX, 1))
	mixed.AddThread(Load(locX, "r0"))
	if _, err := Analyze(mixed); err == nil {
		t.Fatal("Analyze must reject mixed atomic and non-atomic accesses to one location")
	}
}

func TestAnalyzeRejectsOversizedSpace(t *testing.T) {
	// 21 stores to one location have 21! modification orders, more than
	// an int holds: the walk must refuse the space, not materialize it.
	p := NewProgram("oversized")
	for i := 0; i < 21; i++ {
		p.AddThread(Store(locX, 1))
	}
	_, err := Analyze(p)
	if !errors.Is(err, memmodel.ErrSpaceTooLarge) || !strings.HasPrefix(err.Error(), "cpp11: ") {
		t.Fatalf("Analyze = %v, want a cpp11 error wrapping memmodel.ErrSpaceTooLarge", err)
	}
}

func TestSCStoreBufferingForbidsRelaxedOutcome(t *testing.T) {
	sem, err := Analyze(SCStoreBuffering())
	if err != nil {
		t.Fatal(err)
	}
	if sem.Racy {
		t.Fatal("SC-only program must be race-free")
	}
	if sem.Consistent == 0 {
		t.Fatal("no consistent executions")
	}
	bad := RegisterKey(map[string]memmodel.Value{"P0:r0": 0, "P1:r1": 0})
	if sem.AllowsOutcome(bad) {
		t.Errorf("C/C++11 must forbid the relaxed SB outcome; outcomes: %v", sem.OutcomeKeys())
	}
	// At least three of the four other outcomes must be reachable.
	if len(sem.Outcomes) < 3 {
		t.Errorf("suspiciously few outcomes: %v", sem.OutcomeKeys())
	}
}

func TestSCMessagePassingForbidsReordering(t *testing.T) {
	sem, err := Analyze(SCMessagePassing())
	if err != nil {
		t.Fatal(err)
	}
	bad := RegisterKey(map[string]memmodel.Value{"P1:r0": 1, "P1:r1": 0})
	if sem.AllowsOutcome(bad) {
		t.Errorf("flag=1, data=0 must be forbidden; outcomes: %v", sem.OutcomeKeys())
	}
	good := RegisterKey(map[string]memmodel.Value{"P1:r0": 1, "P1:r1": 1})
	if !sem.AllowsOutcome(good) {
		t.Errorf("flag=1, data=1 must be allowed; outcomes: %v", sem.OutcomeKeys())
	}
}

func TestMessagePassingSCFlagUnconditionalReadIsRacy(t *testing.T) {
	// Without the guarding branch the reader touches the data even when it
	// misses the flag, so the idiom is racy under C/C++11.
	sem, err := Analyze(MessagePassingSCFlag())
	if err != nil {
		t.Fatal(err)
	}
	if !sem.Racy {
		t.Error("unconditional read of published data must be reported as a race")
	}
	// Executions where the reader does observe the flag must still see the
	// data: the synchronizes-with edge of the SC flag orders the accesses.
	bad := RegisterKey(map[string]memmodel.Value{"P1:r0": 1, "P1:r1": 0})
	if sem.AllowsOutcome(bad) {
		t.Errorf("observing the flag without the data must be forbidden; outcomes: %v", sem.OutcomeKeys())
	}
}

func TestRacyMessagePassingIsRacy(t *testing.T) {
	sem, err := Analyze(RacyMessagePassing())
	if err != nil {
		t.Fatal(err)
	}
	if !sem.Racy {
		t.Error("plain-flag message passing must be racy")
	}
}

func TestSCIRIWAgreesOnWriteOrder(t *testing.T) {
	sem, err := Analyze(SCIRIW())
	if err != nil {
		t.Fatal(err)
	}
	// The forbidden outcome: the two readers observe the writes in opposite
	// orders.
	bad := RegisterKey(map[string]memmodel.Value{
		"P2:r0": 1, "P2:r1": 0,
		"P3:r2": 1, "P3:r3": 0,
	})
	if sem.AllowsOutcome(bad) {
		t.Errorf("IRIW readers must agree on the SC write order; outcomes: %v", sem.OutcomeKeys())
	}
}

func TestConsistentRejectsCoherenceViolations(t *testing.T) {
	// Single thread SC-stores 1 then 2 to x; another thread SC-loads x twice.
	p := NewProgram("corr")
	p.AddThread(SCStore(locX, 1), SCStore(locX, 2))
	p.AddThread(SCLoad(locX, "r0"), SCLoad(locX, "r1"))
	sem, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := RegisterKey(map[string]memmodel.Value{"P1:r0": 2, "P1:r1": 1})
	if sem.AllowsOutcome(bad) {
		t.Errorf("CoRR-violating outcome allowed; outcomes: %v", sem.OutcomeKeys())
	}
}

func TestNonAtomicVisibility(t *testing.T) {
	// Sequential non-atomic program: a read after a write in the same thread
	// must see that write.
	p := NewProgram("na-seq")
	p.AddThread(Store(locX, 1), Load(locX, "r0"))
	sem, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if sem.Racy {
		t.Fatal("single-threaded program cannot race")
	}
	keys := sem.OutcomeKeys()
	if len(keys) != 1 || keys[0] != RegisterKey(map[string]memmodel.Value{"P0:r0": 1}) {
		t.Errorf("sequential read must see the preceding write; outcomes: %v", keys)
	}
}

func TestRegisterKeyDeterministic(t *testing.T) {
	regs := map[string]memmodel.Value{"P1:r1": 1, "P0:r0": 0}
	want := "P0:r0=0 P1:r1=1"
	for i := 0; i < 5; i++ {
		if RegisterKey(regs) != want {
			t.Fatalf("RegisterKey = %q, want %q", RegisterKey(regs), want)
		}
	}
	if RegisterKey(nil) != "" {
		t.Error("empty register map should render as empty string")
	}
}
