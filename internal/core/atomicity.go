// Package core implements the paper's primary contribution: read-modify-write
// (RMW) atomicity semantics for TSO under three atomicity definitions.
//
// The paper ("Fast RMWs for TSO: Semantics and Implementation", PLDI 2013)
// defines three flavours of RMW atomicity on top of the base TSO axiomatic
// model (internal/memmodel):
//
//   - Type-1 (strict, existing x86/SPARC semantics): no write to any address
//     may appear between the read half Ra and the write half Wa of the RMW in
//     the global memory order (ghb).
//   - Type-2: no read or write to the same address as the RMW may appear
//     between Ra and Wa in ghb.
//   - Type-3: no write to the same address as the RMW may appear between Ra
//     and Wa in ghb.
//
// Each atomicity definition induces additional orderings (the "ato"
// relation): whenever one half of the RMW is ordered against a disallowed
// event, the other half must be ordered the same way, otherwise the
// disallowed event could slip between the two halves. The package derives
// the ato relation by a fixpoint computation, uses it to decide validity of
// candidate executions, and model-checks litmus-sized programs in one walk
// over their candidates (Verdicts). A brute-force linearization oracle (oracle.go)
// cross-checks the fixpoint construction directly against the paper's
// "nothing between Ra and Wa in ghb" definition.
package core

import (
	"fmt"

	"repro/internal/memmodel"
)

// AtomicityType selects one of the paper's three RMW atomicity definitions.
type AtomicityType int

const (
	// Type1 is the strict atomicity of existing TSO RMWs: no write to any
	// address between Ra and Wa in the global memory order.
	Type1 AtomicityType = iota + 1
	// Type2 forbids reads and writes to the same address as the RMW between
	// Ra and Wa.
	Type2
	// Type3 forbids only writes to the same address as the RMW between Ra
	// and Wa.
	Type3
)

// String returns the paper's name for the atomicity type.
func (t AtomicityType) String() string {
	switch t {
	case Type1:
		return "type-1"
	case Type2:
		return "type-2"
	case Type3:
		return "type-3"
	default:
		return fmt.Sprintf("AtomicityType(%d)", int(t))
	}
}

// AllTypes lists the three atomicity types in order of decreasing strength.
func AllTypes() []AtomicityType { return []AtomicityType{Type1, Type2, Type3} }

// ParseAtomicityType parses "type-1"/"type1"/"1" style names.
func ParseAtomicityType(s string) (AtomicityType, error) {
	switch s {
	case "type-1", "type1", "1":
		return Type1, nil
	case "type-2", "type2", "2":
		return Type2, nil
	case "type-3", "type3", "3":
		return Type3, nil
	default:
		return 0, fmt.Errorf("core: unknown atomicity type %q (want type-1, type-2 or type-3)", s)
	}
}

// Stronger reports whether t is at least as strong as other: every execution
// valid under t is valid under other. Type-1 is the strongest, type-3 the
// weakest. Type-3 forbids a subset of what each other type forbids, so
// the monotone fixpoint makes validity under type-1 or type-2 imply
// validity under type-3, and a verdict of several types seeds both other
// fixpoints with type-3's closure (Checker.decide). Nothing proves that
// validity under type-1 implies validity under type-2, whose forbidden
// sets do not nest, so no check relies on it: each runs its own fixpoint.
// TestTypeStrengthInclusion (internal/litmus) tests the whole order on
// every walked candidate of generated and registry programs.
func (t AtomicityType) Stronger(other AtomicityType) bool {
	return t <= other
}

// Bit returns t's bit in a mask of atomicity types, bit t-1, the form in
// which Classifier reports the types a candidate is valid under. It is
// defined for Type1, Type2 and Type3 only.
func (t AtomicityType) Bit() uint64 { return 1 << uint(t-1) }

// maskOf returns the mask of the given types.
func maskOf(types []AtomicityType) uint64 {
	var m uint64
	for _, t := range types {
		m |= t.Bit()
	}
	return m
}

// RMWPair identifies the two halves of one RMW instruction within an
// execution: the indices of the Ra and Wa events.
type RMWPair struct {
	// Read is the event index of the read half (Ra).
	Read int
	// Write is the event index of the write half (Wa).
	Write int
	// Addr is the location the RMW operates on.
	Addr memmodel.Addr
	// Thread is the issuing thread.
	Thread memmodel.ThreadID
	// ID is the RMW identifier shared by both halves.
	ID int
}

// RMWPairs extracts the (Ra, Wa) pairs of every RMW in the execution, in
// the order of their read halves.
func RMWPairs(x *memmodel.Execution) []RMWPair { return appendRMWPairs(nil, x) }

// appendRMWPairs appends the execution's RMW pairs to dst: each read half
// paired with the write half that shares its RMW identifier. An RMW
// missing either half has no pair.
func appendRMWPairs(dst []RMWPair, x *memmodel.Execution) []RMWPair {
	for _, r := range x.Events {
		if r.Kind != memmodel.KindRMWRead {
			continue
		}
		for _, w := range x.Events {
			if w.Kind == memmodel.KindRMWWrite && w.RMW == r.RMW {
				dst = append(dst, RMWPair{Read: r.Index, Write: w.Index, Addr: r.Addr, Thread: r.Thread, ID: r.RMW})
				break
			}
		}
	}
	return dst
}

// Disallowed reports whether event m may not appear between the Ra and Wa of
// the given RMW pair in the global memory order under atomicity type t. The
// two halves of the RMW itself are never disallowed.
func Disallowed(t AtomicityType, m *memmodel.Event, pair RMWPair) bool {
	if m.Index == pair.Read || m.Index == pair.Write {
		return false
	}
	if !m.Kind.IsMemory() {
		return false
	}
	switch t {
	case Type1:
		// No write to any address between Ra and Wa.
		return m.IsWrite()
	case Type2:
		// No read or write to the same address between Ra and Wa.
		return m.Addr == pair.Addr
	case Type3:
		// No write to the same address between Ra and Wa.
		return m.IsWrite() && m.Addr == pair.Addr
	default:
		return false
	}
}

// DisallowedEvents returns the indices of all events that atomicity type t
// forbids from appearing between the halves of the given RMW pair.
func DisallowedEvents(t AtomicityType, x *memmodel.Execution, pair RMWPair) []int {
	var out []int
	for _, e := range x.Events {
		if Disallowed(t, e, pair) {
			out = append(out, e.Index)
		}
	}
	return out
}
