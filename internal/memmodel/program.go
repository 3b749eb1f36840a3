package memmodel

import "fmt"

// InstrKind classifies a litmus-program instruction.
type InstrKind int

// Instruction kinds.
const (
	// InstrRead loads from an address into a named register.
	InstrRead InstrKind = iota
	// InstrWrite stores a constant to an address.
	InstrWrite
	// InstrFence is a full memory barrier.
	InstrFence
	// InstrRMW atomically reads an address into a register and writes a
	// new value computed from the read value.
	InstrRMW
)

// ModifyFunc computes the value written by an RMW from the value it read.
type ModifyFunc func(Value) Value

// Instr is one instruction of a litmus program thread.
type Instr struct {
	Kind InstrKind
	// Addr is the accessed location (unused for fences).
	Addr Addr
	// Value is the stored value for InstrWrite.
	Value Value
	// Reg names the destination register for InstrRead and InstrRMW; the
	// final value of the register is available to litmus-test conditions.
	Reg string
	// Modify computes the value written by an InstrRMW from the value it
	// read. If nil, Exchange is implied and Value is written unmodified.
	Modify ModifyFunc
}

// Read returns a load instruction from addr into register reg.
func Read(addr Addr, reg string) Instr {
	return Instr{Kind: InstrRead, Addr: addr, Reg: reg}
}

// Write returns a store instruction of value v to addr.
func Write(addr Addr, v Value) Instr {
	return Instr{Kind: InstrWrite, Addr: addr, Value: v}
}

// Fence returns a full memory barrier instruction.
func Fence() Instr {
	return Instr{Kind: InstrFence}
}

// Exchange returns an atomic exchange (lock xchg): it reads addr into reg
// and unconditionally writes v.
func Exchange(addr Addr, reg string, v Value) Instr {
	return Instr{Kind: InstrRMW, Addr: addr, Reg: reg, Value: v,
		Modify: func(Value) Value { return v }}
}

// FetchAdd returns an atomic fetch-and-add (lock xadd): it reads addr into
// reg and writes the read value plus delta. FetchAdd(addr, reg, 0) is the
// "lock xadd(0)" used by the paper's Table 4 read mappings.
func FetchAdd(addr Addr, reg string, delta Value) Instr {
	return Instr{Kind: InstrRMW, Addr: addr, Reg: reg, Value: delta,
		Modify: func(v Value) Value { return v + delta }}
}

// TestAndSet returns an atomic test-and-set: it reads addr into reg and
// writes 1.
func TestAndSet(addr Addr, reg string) Instr {
	return Exchange(addr, reg, 1)
}

// RMW returns a generic read-modify-write with an arbitrary modify
// function.
func RMW(addr Addr, reg string, modify ModifyFunc) Instr {
	return Instr{Kind: InstrRMW, Addr: addr, Reg: reg, Modify: modify}
}

// String renders the instruction in litmus-like syntax.
func (in Instr) String() string {
	switch in.Kind {
	case InstrRead:
		return fmt.Sprintf("%s = load %s", in.Reg, AddrName(in.Addr))
	case InstrWrite:
		return fmt.Sprintf("store %s, %d", AddrName(in.Addr), int(in.Value))
	case InstrFence:
		return "mfence"
	case InstrRMW:
		return fmt.Sprintf("%s = rmw %s", in.Reg, AddrName(in.Addr))
	default:
		return fmt.Sprintf("instr(%d)", int(in.Kind))
	}
}

// Thread is one thread of a litmus program: an ordered list of
// instructions.
type Thread []Instr

// Program is a multi-threaded litmus program together with (optional)
// non-zero initial values for locations. All other locations start at 0.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Threads holds the per-thread instruction sequences. Thread i runs on
	// ThreadID(i).
	Threads []Thread
	// Init holds initial values for locations that do not start at zero.
	Init map[Addr]Value
}

// NewProgram returns an empty named program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Init: make(map[Addr]Value)}
}

// AddThread appends a thread and returns its ThreadID.
func (p *Program) AddThread(instrs ...Instr) ThreadID {
	p.Threads = append(p.Threads, Thread(instrs))
	return ThreadID(len(p.Threads) - 1)
}

// SetInit sets the initial value of a location.
func (p *Program) SetInit(addr Addr, v Value) {
	if p.Init == nil {
		p.Init = make(map[Addr]Value)
	}
	p.Init[addr] = v
}

// Addrs returns the set of locations accessed by the program (plus any
// initialized locations), in ascending order.
func (p *Program) Addrs() []Addr {
	seen := map[Addr]bool{}
	for _, t := range p.Threads {
		for _, in := range t {
			if in.Kind != InstrFence {
				seen[in.Addr] = true
			}
		}
	}
	for a := range p.Init {
		seen[a] = true
	}
	var out []Addr
	for a := range seen {
		out = append(out, a)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// Validate checks structural well-formedness of the program: at least one
// thread, register names unique per thread for value-producing
// instructions, and no empty threads.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("memmodel: program %q has no threads", p.Name)
	}
	for ti, t := range p.Threads {
		if len(t) == 0 {
			return fmt.Errorf("memmodel: program %q thread %d is empty", p.Name, ti)
		}
		regs := map[string]bool{}
		for ii, in := range t {
			switch in.Kind {
			case InstrRead, InstrRMW:
				if in.Reg == "" {
					return fmt.Errorf("memmodel: program %q thread %d instr %d: missing destination register", p.Name, ti, ii)
				}
				if regs[in.Reg] {
					return fmt.Errorf("memmodel: program %q thread %d: register %q assigned twice", p.Name, ti, in.Reg)
				}
				regs[in.Reg] = true
			case InstrWrite, InstrFence:
				// nothing to check
			default:
				return fmt.Errorf("memmodel: program %q thread %d instr %d: unknown kind %d", p.Name, ti, ii, int(in.Kind))
			}
		}
	}
	return nil
}

// String renders the program with one column per thread.
func (p *Program) String() string {
	s := p.Name + ":\n"
	for ti, t := range p.Threads {
		s += fmt.Sprintf("  P%d:\n", ti)
		for _, in := range t {
			s += "    " + in.String() + "\n"
		}
	}
	return s
}
