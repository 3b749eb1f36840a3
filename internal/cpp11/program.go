// Package cpp11 implements the subset of the C/C++11 concurrency model that
// the paper relies on (appendix A), together with the three compilation
// mappings of Table 4 from C/C++11 atomics to x86-TSO instruction sequences
// and an executable validation of which mappings are sound for which RMW
// atomicity type.
//
// Only the features the paper's argument needs are modelled: non-atomic
// loads and stores, and SC-ordered atomic loads and stores ("the properties
// of the others are automatically satisfied by normal reads and writes on
// TSO"). The candidate executions are internal/memmodel's: Analyze walks
// memmodel.EnumerateFunc over the program translated with every access a
// plain TSO read or write, so both models draw on one reads-from ×
// modification-order space. Consistency of a candidate follows Batty et
// al.'s formulation restricted to this subset: happens-before built from
// sequenced-before and synchronizes-with, modification order per atomic
// location, an SC total order over all SC actions, coherence shapes, and
// the SC read restriction. Programs with a data race on a non-atomic
// location have undefined behaviour.
package cpp11

import (
	"fmt"

	"repro/internal/memmodel"
)

// MemoryOrder is the memory-order annotation of an atomic access. Only
// OrderNA (plain, non-atomic) and OrderSC matter on TSO (see the paper's
// appendix); the relaxed/acquire/release orders collapse to plain TSO
// accesses under every mapping in Table 4 and are therefore not modelled
// separately.
type MemoryOrder int

const (
	// OrderNA marks a non-atomic (plain) access.
	OrderNA MemoryOrder = iota
	// OrderSC marks a sequentially-consistent atomic access.
	OrderSC
)

// String renders the order annotation.
func (o MemoryOrder) String() string {
	switch o {
	case OrderNA:
		return "na"
	case OrderSC:
		return "sc"
	default:
		return fmt.Sprintf("MemoryOrder(%d)", int(o))
	}
}

// OpKind distinguishes loads from stores.
type OpKind int

const (
	// OpLoad is a load.
	OpLoad OpKind = iota
	// OpStore is a store.
	OpStore
)

// Stmt is one statement of a C/C++11 thread: a load or store with a memory
// order annotation.
type Stmt struct {
	Kind  OpKind
	Order MemoryOrder
	// Addr is the accessed location.
	Addr memmodel.Addr
	// Value is the stored value (stores only).
	Value memmodel.Value
	// Reg names the destination (loads only); it is observable in final
	// conditions as "P<tid>:<reg>".
	Reg string
}

// String renders the statement in C-like pseudocode.
func (s Stmt) String() string {
	loc := memmodel.AddrName(s.Addr)
	switch {
	case s.Kind == OpLoad && s.Order == OrderSC:
		return fmt.Sprintf("%s = %s.load(seq_cst)", s.Reg, loc)
	case s.Kind == OpLoad:
		return fmt.Sprintf("%s = %s", s.Reg, loc)
	case s.Order == OrderSC:
		return fmt.Sprintf("%s.store(%d, seq_cst)", loc, int(s.Value))
	default:
		return fmt.Sprintf("%s = %d", loc, int(s.Value))
	}
}

// Load builds a non-atomic load.
func Load(addr memmodel.Addr, reg string) Stmt {
	return Stmt{Kind: OpLoad, Order: OrderNA, Addr: addr, Reg: reg}
}

// Store builds a non-atomic store.
func Store(addr memmodel.Addr, v memmodel.Value) Stmt {
	return Stmt{Kind: OpStore, Order: OrderNA, Addr: addr, Value: v}
}

// SCLoad builds a seq_cst atomic load.
func SCLoad(addr memmodel.Addr, reg string) Stmt {
	return Stmt{Kind: OpLoad, Order: OrderSC, Addr: addr, Reg: reg}
}

// SCStore builds a seq_cst atomic store.
func SCStore(addr memmodel.Addr, v memmodel.Value) Stmt {
	return Stmt{Kind: OpStore, Order: OrderSC, Addr: addr, Value: v}
}

// Thread is one C/C++11 thread.
type Thread []Stmt

// Program is a multi-threaded C/C++11 program over integer locations, with
// optional non-zero initial values. Locations accessed by any SC statement
// are atomic locations; the model requires that atomic and non-atomic
// statements never target the same location (the paper's examples satisfy
// this, and mixing them is not needed for the mapping arguments).
type Program struct {
	Name    string
	Threads []Thread
	Init    map[memmodel.Addr]memmodel.Value
}

// NewProgram returns an empty named program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Init: map[memmodel.Addr]memmodel.Value{}}
}

// AddThread appends a thread and returns its index.
func (p *Program) AddThread(stmts ...Stmt) int {
	p.Threads = append(p.Threads, Thread(stmts))
	return len(p.Threads) - 1
}

// SetInit records a non-zero initial value.
func (p *Program) SetInit(addr memmodel.Addr, v memmodel.Value) {
	if p.Init == nil {
		p.Init = map[memmodel.Addr]memmodel.Value{}
	}
	p.Init[addr] = v
}

// AtomicLocations returns the set of locations accessed by at least one SC
// statement.
func (p *Program) AtomicLocations() map[memmodel.Addr]bool {
	out := map[memmodel.Addr]bool{}
	for _, t := range p.Threads {
		for _, s := range t {
			if s.Order == OrderSC {
				out[s.Addr] = true
			}
		}
	}
	return out
}

// Validate checks structural well-formedness: at least one non-empty
// thread, unique registers per thread, and no location accessed both
// atomically and non-atomically.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("cpp11: program %q has no threads", p.Name)
	}
	atomic := p.AtomicLocations()
	for ti, t := range p.Threads {
		if len(t) == 0 {
			return fmt.Errorf("cpp11: program %q thread %d is empty", p.Name, ti)
		}
		regs := map[string]bool{}
		for si, s := range t {
			if s.Kind == OpLoad {
				if s.Reg == "" {
					return fmt.Errorf("cpp11: program %q thread %d stmt %d: load without register", p.Name, ti, si)
				}
				if regs[s.Reg] {
					return fmt.Errorf("cpp11: program %q thread %d: register %q assigned twice", p.Name, ti, s.Reg)
				}
				regs[s.Reg] = true
			}
			if s.Order == OrderNA && atomic[s.Addr] {
				return fmt.Errorf("cpp11: program %q mixes atomic and non-atomic accesses to %s",
					p.Name, memmodel.AddrName(s.Addr))
			}
		}
	}
	return nil
}

// String renders the program with one block per thread.
func (p *Program) String() string {
	s := p.Name + ":\n"
	for ti, t := range p.Threads {
		s += fmt.Sprintf("  // thread %d\n", ti)
		for _, st := range t {
			s += "  " + st.String() + ";\n"
		}
	}
	return s
}
