// Package memmodel implements the base axiomatic Total-Store-Order (TSO)
// memory model used by the paper "Fast RMWs for TSO: Semantics and
// Implementation" (PLDI 2013), following Alglave's framework.
//
// The package provides:
//
//   - a representation of memory events (reads, writes, fences, and the
//     read/write halves of read-modify-write instructions),
//   - a small program representation from which candidate executions are
//     enumerated (all reads-from maps and write serializations),
//   - the derived TSO relations: program order (po), preserved program
//     order (ppo), barrier order (bar), write serialization (ws),
//     reads-from (rf), external reads-from (rfe) and from-reads (fr),
//     whose union ws ∪ rfe ∪ fr is the communication relation com,
//   - validity checks for the base model: acyclicity of com ∪ ppo ∪ bar
//     (BaseOrder, closed by insertion in BaseClosure) and the uniproc
//     (SC-per-location) condition.
//
// RMW atomicity (type-1/2/3) and the induced ato orderings are layered on
// top of this package by internal/core.
package memmodel

import (
	"fmt"
	"strconv"
)

// ThreadID identifies a hardware thread (processor) in a litmus program.
// The pseudo-thread InitThread owns the initial writes of every location.
type ThreadID int

// InitThread is the thread that owns initial-value writes.
const InitThread ThreadID = -1

// Addr is a memory location. Litmus programs conventionally use small
// integers; the String method renders 0..25 as x, y, z, a, b, ...
type Addr int

// Value is the value read or written by a memory event.
type Value int

// EventKind classifies a memory event.
type EventKind int

// Event kinds.
const (
	// KindRead is a plain load.
	KindRead EventKind = iota
	// KindWrite is a plain store.
	KindWrite
	// KindFence is a full memory barrier (mfence).
	KindFence
	// KindRMWRead is the read half (Ra) of a read-modify-write.
	KindRMWRead
	// KindRMWWrite is the write half (Wa) of a read-modify-write.
	KindRMWWrite
	// KindInit is the implicit initial write of a location.
	KindInit
)

// String returns a short mnemonic for the kind.
func (k EventKind) String() string {
	switch k {
	case KindRead:
		return "R"
	case KindWrite:
		return "W"
	case KindFence:
		return "F"
	case KindRMWRead:
		return "Ra"
	case KindRMWWrite:
		return "Wa"
	case KindInit:
		return "Init"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// IsRead reports whether the event kind reads memory.
func (k EventKind) IsRead() bool { return k == KindRead || k == KindRMWRead }

// IsWrite reports whether the event kind writes memory.
func (k EventKind) IsWrite() bool { return k == KindWrite || k == KindRMWWrite || k == KindInit }

// IsMemory reports whether the kind is a memory access (not a fence).
func (k EventKind) IsMemory() bool { return k != KindFence }

// Event is a single memory event in a candidate execution. Events are
// identified by their index in Execution.Events.
type Event struct {
	// Index is the position of the event in the owning execution's event
	// slice. It is assigned by the enumerator.
	Index int
	// Thread is the issuing thread (InitThread for initial writes).
	Thread ThreadID
	// Kind classifies the event.
	Kind EventKind
	// Addr is the accessed location (meaningless for fences).
	Addr Addr
	// Value is the value written (for writes) or read (for reads); read
	// values are filled in once a reads-from map has been chosen.
	Value Value
	// PO is the program-order index of the originating instruction within
	// its thread.
	PO int
	// RMW is the identifier of the RMW instruction this event belongs to,
	// or -1 for events that are not part of an RMW. The read and write
	// halves of one RMW share the same identifier.
	RMW int
	// Label is an optional human-readable tag carried over from the
	// instruction (used by litmus tests to name observed registers).
	Label string
}

// IsRead reports whether e reads memory.
func (e *Event) IsRead() bool { return e.Kind.IsRead() }

// IsWrite reports whether e writes memory.
func (e *Event) IsWrite() bool { return e.Kind.IsWrite() }

// IsFence reports whether e is a barrier.
func (e *Event) IsFence() bool { return e.Kind == KindFence }

// IsInit reports whether e is an initial write.
func (e *Event) IsInit() bool { return e.Kind == KindInit }

// Register returns the "P<tid>:<reg>" name of the register a labeled read
// fills, or "" for any other event.
func (e *Event) Register() string {
	if !e.IsRead() || e.Label == "" {
		return ""
	}
	return "P" + strconv.Itoa(int(e.Thread)) + ":" + e.Label
}

// SameRMW reports whether e and other are the two halves of the same RMW
// instruction.
func (e *Event) SameRMW(other *Event) bool {
	return e.RMW >= 0 && e.RMW == other.RMW && e.Thread == other.Thread
}

// AddrName renders an address using litmus conventions (x, y, z, a, ...).
func AddrName(a Addr) string {
	names := []string{"x", "y", "z", "a", "b", "c", "d", "e", "f", "g"}
	if int(a) >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("m%d", int(a))
}

// String renders the event in the paper's notation, e.g. "P0:W(x)=1" or
// "P1:Ra(y)=0".
func (e *Event) String() string {
	if e.Kind == KindFence {
		return fmt.Sprintf("P%d:F", int(e.Thread))
	}
	tid := fmt.Sprintf("P%d", int(e.Thread))
	if e.Thread == InitThread {
		tid = "init"
	}
	return fmt.Sprintf("%s:%s(%s)=%d", tid, e.Kind, AddrName(e.Addr), int(e.Value))
}
