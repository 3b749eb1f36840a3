package rmwtso

import (
	"repro/internal/core"
	"repro/internal/memmodel"
)

// Addr is a memory location of a litmus program.
type Addr = memmodel.Addr

// Value is a value stored at a location or in a register.
type Value = memmodel.Value

// ThreadID identifies a thread of a litmus program.
type ThreadID = memmodel.ThreadID

// Program is a litmus-sized TSO program: a list of threads, each a list
// of instructions, plus initial memory values.
type Program = memmodel.Program

// Instr is one instruction of a litmus program.
type Instr = memmodel.Instr

// ModifyFunc computes an RMW's written value from its read value.
type ModifyFunc = memmodel.ModifyFunc

// Execution is one candidate execution of a litmus program: events plus a
// reads-from assignment and per-location write serializations. Executions
// received by enumeration visitors are owned by the enumerator's arena
// and valid only for the duration of the visit; use Execution.Clone to
// retain one.
type Execution = memmodel.Execution

// ErrSpaceTooLarge is returned (wrapped) by the enumeration entry points
// when a program's candidate space does not fit in an int; test for it
// with errors.Is.
var ErrSpaceTooLarge = memmodel.ErrSpaceTooLarge

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program { return memmodel.NewProgram(name) }

// Read builds a load into a register.
func Read(addr Addr, reg string) Instr { return memmodel.Read(addr, reg) }

// Write builds a plain store.
func Write(addr Addr, v Value) Instr { return memmodel.Write(addr, v) }

// Fence builds an mfence.
func Fence() Instr { return memmodel.Fence() }

// Exchange builds a lock xchg: atomically write v, read the old value into
// reg.
func Exchange(addr Addr, reg string, v Value) Instr { return memmodel.Exchange(addr, reg, v) }

// FetchAdd builds a lock xadd: atomically add delta, read the old value
// into reg.
func FetchAdd(addr Addr, reg string, delta Value) Instr { return memmodel.FetchAdd(addr, reg, delta) }

// TestAndSet builds a test-and-set RMW: atomically write 1, read the old
// value into reg.
func TestAndSet(addr Addr, reg string) Instr { return memmodel.TestAndSet(addr, reg) }

// RMWInstr builds a generic RMW with an arbitrary modify function.
func RMWInstr(addr Addr, reg string, modify ModifyFunc) Instr {
	return memmodel.RMW(addr, reg, modify)
}

// EnumerateExecutions materializes every candidate execution of the
// program, each cloned out of the enumerator's arena so the returned
// executions remain valid indefinitely. Prefer EnumerateExecutionsFunc
// when scanning: its per-candidate loop reuses one arena slot and
// allocates nothing in steady state.
func EnumerateExecutions(p *Program) ([]*Execution, error) { return memmodel.Enumerate(p) }

// EnumerateExecutionsFunc streams every candidate execution of the program
// to visit, one at a time. Returning false stops the enumeration early.
// The visited executions are candidates only; filter them with
// Model.Valid (or use Model.ValidExecutionsFunc). Each execution is
// arena-owned and valid only during its visit (Clone to retain), and a
// program whose candidate space does not fit in an int fails with an
// error wrapping ErrSpaceTooLarge.
func EnumerateExecutionsFunc(p *Program, visit func(*Execution) bool) error {
	return memmodel.EnumerateFunc(p, visit)
}

// CountCandidates returns the number of candidate executions the program
// enumerates, without assembling them. Useful for bounding litmus-test
// cost. A program whose
// candidate space does not fit in an int yields an error wrapping
// ErrSpaceTooLarge.
func CountCandidates(p *Program) (int, error) { return memmodel.CountCandidates(p) }

// Model is a TSO memory model extended with RMWs of one atomicity type.
type Model = core.Model

// NewModel returns the model for the given atomicity type.
func NewModel(t AtomicityType) *Model { return core.NewModel(t) }

// Outcome is one observable result of a program: final register and
// memory values.
type Outcome = core.Outcome

// OutcomeSet is a set of observable outcomes keyed by Outcome.Key.
type OutcomeSet = core.OutcomeSet

// NewOutcomeSet returns an empty outcome set.
func NewOutcomeSet() *OutcomeSet { return core.NewOutcomeSet() }

// OutcomeOf extracts the observable outcome of an execution.
func OutcomeOf(x *Execution) Outcome { return core.OutcomeOf(x) }
