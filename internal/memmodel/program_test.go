package memmodel

import (
	"strings"
	"testing"
)

func TestInstrConstructors(t *testing.T) {
	r := Read(0, "r1")
	if r.Kind != InstrRead || r.Addr != 0 || r.Reg != "r1" {
		t.Errorf("Read constructor wrong: %+v", r)
	}
	w := Write(1, 7)
	if w.Kind != InstrWrite || w.Addr != 1 || w.Value != 7 {
		t.Errorf("Write constructor wrong: %+v", w)
	}
	f := Fence()
	if f.Kind != InstrFence {
		t.Errorf("Fence constructor wrong: %+v", f)
	}
	x := Exchange(2, "r2", 5)
	if x.Kind != InstrRMW || x.Modify == nil || x.Modify(99) != 5 {
		t.Errorf("Exchange must write its value regardless of the read: %+v", x)
	}
	fa := FetchAdd(2, "r3", 3)
	if fa.Modify(4) != 7 {
		t.Errorf("FetchAdd modify: got %d, want 7", fa.Modify(4))
	}
	tas := TestAndSet(0, "r4")
	if tas.Modify(0) != 1 || tas.Modify(1) != 1 {
		t.Errorf("TestAndSet must always write 1")
	}
	g := RMW(3, "r5", func(v Value) Value { return v * 2 })
	if g.Modify(21) != 42 {
		t.Errorf("generic RMW modify: got %d, want 42", g.Modify(21))
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Read(0, "r1"), "r1 = load x"},
		{Write(1, 2), "store y, 2"},
		{Fence(), "mfence"},
		{Exchange(2, "r2", 1), "r2 = rmw z"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in.Kind, got, c.want)
		}
	}
}

func TestProgramAddThreadAndAddrs(t *testing.T) {
	p := NewProgram("test")
	t0 := p.AddThread(Write(0, 1), Read(1, "r1"))
	t1 := p.AddThread(Write(1, 1), Read(0, "r2"))
	if t0 != 0 || t1 != 1 {
		t.Fatalf("thread ids = %d,%d want 0,1", t0, t1)
	}
	addrs := p.Addrs()
	if len(addrs) != 2 || addrs[0] != 0 || addrs[1] != 1 {
		t.Fatalf("Addrs = %v, want [0 1]", addrs)
	}
}

func TestProgramSetInit(t *testing.T) {
	p := &Program{Name: "noinit"}
	p.AddThread(Read(5, "r1"))
	p.SetInit(7, 3)
	addrs := p.Addrs()
	if len(addrs) != 2 {
		t.Fatalf("Addrs = %v, want two addresses (accessed + initialized)", addrs)
	}
	if p.Init[7] != 3 {
		t.Fatalf("Init[7] = %d, want 3", p.Init[7])
	}
}

func TestProgramValidate(t *testing.T) {
	empty := NewProgram("empty")
	if err := empty.Validate(); err == nil {
		t.Error("program with no threads must not validate")
	}

	emptyThread := NewProgram("empty-thread")
	emptyThread.Threads = append(emptyThread.Threads, Thread{})
	if err := emptyThread.Validate(); err == nil {
		t.Error("program with an empty thread must not validate")
	}

	missingReg := NewProgram("missing-reg")
	missingReg.AddThread(Instr{Kind: InstrRead, Addr: 0})
	if err := missingReg.Validate(); err == nil {
		t.Error("read without destination register must not validate")
	}

	dupReg := NewProgram("dup-reg")
	dupReg.AddThread(Read(0, "r1"), Read(1, "r1"))
	if err := dupReg.Validate(); err == nil {
		t.Error("duplicate register in one thread must not validate")
	}

	ok := NewProgram("ok")
	ok.AddThread(Write(0, 1), Read(1, "r1"), Fence(), Exchange(0, "r2", 1))
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	unknown := NewProgram("unknown")
	unknown.AddThread(Instr{Kind: InstrKind(99)})
	if err := unknown.Validate(); err == nil {
		t.Error("unknown instruction kind must not validate")
	}
}

func TestProgramString(t *testing.T) {
	p := NewProgram("sb")
	p.AddThread(Write(0, 1), Read(1, "r1"))
	p.AddThread(Write(1, 1), Read(0, "r2"))
	s := p.String()
	if !strings.Contains(s, "P0") || !strings.Contains(s, "P1") {
		t.Errorf("String missing thread headers:\n%s", s)
	}
	if !strings.Contains(s, "store x, 1") {
		t.Errorf("String missing instruction rendering:\n%s", s)
	}
}

func TestAddrName(t *testing.T) {
	if AddrName(0) != "x" || AddrName(1) != "y" || AddrName(2) != "z" {
		t.Error("first addresses should be named x, y, z")
	}
	if AddrName(100) != "m100" {
		t.Errorf("AddrName(100) = %q, want m100", AddrName(100))
	}
}

func TestEventKindPredicates(t *testing.T) {
	if !KindRead.IsRead() || !KindRMWRead.IsRead() {
		t.Error("read kinds misclassified")
	}
	if KindWrite.IsRead() || KindFence.IsRead() {
		t.Error("non-read kinds classified as read")
	}
	if !KindWrite.IsWrite() || !KindRMWWrite.IsWrite() || !KindInit.IsWrite() {
		t.Error("write kinds misclassified")
	}
	if KindFence.IsMemory() {
		t.Error("fence is not a memory access")
	}
	if !KindRead.IsMemory() {
		t.Error("read is a memory access")
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		KindRead: "R", KindWrite: "W", KindFence: "F",
		KindRMWRead: "Ra", KindRMWWrite: "Wa", KindInit: "Init",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if EventKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestEventString(t *testing.T) {
	e := &Event{Thread: 0, Kind: KindWrite, Addr: 0, Value: 1}
	if e.String() != "P0:W(x)=1" {
		t.Errorf("Event.String = %q", e.String())
	}
	f := &Event{Thread: 1, Kind: KindFence}
	if f.String() != "P1:F" {
		t.Errorf("fence String = %q", f.String())
	}
	init := &Event{Thread: InitThread, Kind: KindInit, Addr: 1, Value: 0}
	if init.String() != "init:Init(y)=0" {
		t.Errorf("init String = %q", init.String())
	}
}

func TestEventSameRMW(t *testing.T) {
	ra := &Event{Index: 0, Thread: 0, Kind: KindRMWRead, RMW: 3}
	wa := &Event{Index: 1, Thread: 0, Kind: KindRMWWrite, RMW: 3}
	other := &Event{Index: 2, Thread: 1, Kind: KindRMWWrite, RMW: 4}
	plain := &Event{Index: 3, Thread: 0, Kind: KindWrite, RMW: -1}
	if !ra.SameRMW(wa) {
		t.Error("halves of the same RMW not recognised")
	}
	if ra.SameRMW(other) {
		t.Error("different RMWs matched")
	}
	if plain.SameRMW(ra) || ra.SameRMW(plain) {
		t.Error("plain event must never match an RMW half")
	}
}
