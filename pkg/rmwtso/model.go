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

// EnumerateExecutionsFunc streams every candidate execution of the program
// to visit, one at a time. Returning false stops the enumeration early.
// The visited executions are candidates only, valid or not; Explain
// tells why one is (in)valid under an atomicity type. Each execution is
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

// Explain describes why an execution is (in)valid under atomicity type
// t: the ato edges it derives and one witness global memory order, or
// one cycle or the uniproc violation.
func Explain(x *Execution, t AtomicityType) string { return core.Explain(x, t) }

// OutcomeSet is the set of observable outcomes of a program under one
// atomicity type, one row of final values per outcome.
type OutcomeSet = core.OutcomeSet
