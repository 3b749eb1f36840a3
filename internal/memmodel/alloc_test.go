package memmodel

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// threeThread returns the enumeration-shape-rich program the allocation
// tests use: three threads mixing plain writes, RMWs and reads, with a
// candidate set in the thousands.
func threeThread() *Program {
	p := NewProgram("three-thread")
	p.AddThread(Write(0, 1), FetchAdd(1, "a0", 1), Read(2, "r0"))
	p.AddThread(Write(1, 1), FetchAdd(2, "a1", 1), Read(0, "r1"))
	p.AddThread(Write(2, 1), FetchAdd(0, "a2", 1), Read(1, "r2"))
	return p
}

// TestScanSteadyStateAllocationFree pins the tentpole property of the
// arena-based enumerator: once an arena's slot has been warmed, walking
// the candidate space — decode, assembly, value propagation, classifying
// by validity against the base model (Uniproc and BaseClosure into one
// reused relation) — allocates nothing, in the full walk and in the
// uniproc walk alike. sp.scan is exactly the per-candidate loop of both
// the sequential path and each parallel worker, so this covers the steady
// state of every walker.
func TestScanSteadyStateAllocationFree(t *testing.T) {
	for _, uniproc := range []bool{false, true} {
		sp, err := newEnumSpace(threeThread())
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.buildWalk(context.Background(), uniproc); err != nil {
			t.Fatal(err)
		}
		arena := sp.newArena()
		var base Relation
		baseValid := func(x *Execution) uint64 {
			if x.Uniproc() && x.BaseClosure(&base) {
				return 1
			}
			return 0
		}
		cfg := &enumConfig{
			ctx:      context.Background(),
			classify: func() func(*Execution) uint64 { return baseValid },
		}
		visited := 0
		emit := func(x *Execution) bool {
			visited++
			return true
		}
		// Warm run: sizes the slot's relation backing arrays.
		if err := sp.scan(cfg, 0, sp.total(), nil, arena, emit); err != nil {
			t.Fatal(err)
		}
		if visited == 0 {
			t.Fatalf("uniproc %t: no candidate survived the base-validity filter", uniproc)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := sp.scan(cfg, 0, sp.total(), nil, arena, emit); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("uniproc %t: scan of %d candidates allocated %.1f times per run, want 0", uniproc, sp.total(), allocs)
		}
	}
}

// TestEnumerateParallelAllocationBounded checks the same property from
// outside the package boundary: a full parallel enumeration allocates
// only setup (the enumeration space, the per-worker arenas, the
// goroutine machinery), not O(candidates). The test compares a program
// against a 27×-larger variant with the same setup shape: the extra
// candidates must be close to allocation-free at the margin.
func TestEnumerateParallelAllocationBounded(t *testing.T) {
	small := threeThread()
	big := threeThread()
	// Three more plain reads multiply the rf space by 27 without changing
	// the worker count or the per-slot allocation shape.
	big.AddThread(Read(0, "r3"), Read(1, "r4"), Read(2, "r5"))

	count := func(p *Program) int {
		n, err := CountCandidates(p)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	candSmall, candBig := count(small), count(big)
	if candBig < 10*candSmall {
		t.Fatalf("big program not big enough: %d vs %d candidates", candBig, candSmall)
	}

	measure := func(p *Program) float64 {
		return testing.AllocsPerRun(2, func() {
			visited := 0
			err := EnumerateFunc(p, func(x *Execution) bool {
				visited++
				return true
			}, EnumWorkers(4))
			if err != nil {
				t.Error(err)
			}
			if visited == 0 {
				t.Error("no candidates visited")
			}
		})
	}
	allocsSmall, allocsBig := measure(small), measure(big)
	marginal := allocsBig - allocsSmall
	if limit := float64(candBig-candSmall) / 20; marginal >= limit {
		t.Errorf("%d extra candidates cost %.0f extra allocations (%.0f vs %.0f), want < %.0f",
			candBig-candSmall, marginal, allocsBig, allocsSmall, limit)
	}
}

// TestEnumerateOverflowRF covers the reads-from half of the overflow fix:
// a program whose rf choice product exceeds int range must fail up front
// with ErrSpaceTooLarge instead of silently wrapping the candidate count.
// Eight candidate writes per read across 21 reads gives 8^21 = 2^63
// assignments, one past the largest int.
func TestEnumerateOverflowRF(t *testing.T) {
	p := NewProgram("rf-overflow")
	writes := make([]Instr, 7)
	for i := range writes {
		writes[i] = Write(0, Value(i+1))
	}
	p.AddThread(writes...)
	reads := make([]Instr, 21)
	for i := range reads {
		reads[i] = Read(0, fmt.Sprintf("r%d", i))
	}
	p.AddThread(reads...)

	if _, err := CountCandidates(p); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("CountCandidates error = %v, want ErrSpaceTooLarge", err)
	}
	if err := EnumerateFunc(p, func(*Execution) bool { return true }); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("EnumerateFunc error = %v, want ErrSpaceTooLarge", err)
	}
	if _, err := Enumerate(p); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("Enumerate error = %v, want ErrSpaceTooLarge", err)
	}
	if err := EnumerateFunc(p, func(*Execution) bool { return true }, EnumWorkers(0)); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("EnumerateFunc(EnumWorkers(0)) error = %v, want ErrSpaceTooLarge", err)
	}
}

// TestEnumerateOverflowWS covers the write-serialization half: a location
// with 21 non-initial writes has 21! coherence orders, which overflows
// int. The factorial is overflow-checked before any permutation table is
// materialized, so the failure is a prompt typed error rather than an
// attempt to allocate ~10^19 permutations.
func TestEnumerateOverflowWS(t *testing.T) {
	p := NewProgram("ws-overflow")
	writes := make([]Instr, 21)
	for i := range writes {
		writes[i] = Write(0, Value(i+1))
	}
	p.AddThread(writes...)

	if _, err := CountCandidates(p); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("CountCandidates error = %v, want ErrSpaceTooLarge", err)
	}
	if err := EnumerateFunc(p, func(*Execution) bool { return true }); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("EnumerateFunc error = %v, want ErrSpaceTooLarge", err)
	}
}

// TestEnumerateNoOverflowFalsePositive guards the overflow checks
// against false positives: a large-but-representable space must still be
// sized exactly. Eight non-initial writes to one location give 8! =
// 40320 coherence orders.
func TestEnumerateNoOverflowFalsePositive(t *testing.T) {
	p := NewProgram("ws-large-ok")
	writes := make([]Instr, 8)
	for i := range writes {
		writes[i] = Write(0, Value(i+1))
	}
	p.AddThread(writes...)
	n, err := CountCandidates(p)
	if err != nil {
		t.Fatalf("CountCandidates: %v", err)
	}
	if n != 40320 {
		t.Fatalf("CountCandidates = %d, want 8! = 40320", n)
	}
	// checkedMul at the boundary: the exact maximum stays representable,
	// one step past it is reported.
	const maxInt = int(^uint(0) >> 1)
	if got, ok := checkedMul(maxInt, 1); !ok || got != maxInt {
		t.Fatalf("checkedMul(maxInt, 1) = %d, %v; want maxInt, true", got, ok)
	}
	if _, ok := checkedMul(maxInt/2+1, 2); ok {
		t.Fatal("checkedMul must report overflow for (maxInt/2+1)*2")
	}
}
