package memmodel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// parallelTestPrograms returns a mix of enumeration shapes: RMW-free,
// RMW chains with dropped cyclic candidates, multi-location ws
// permutations, and a three-thread program with a candidate set in the
// thousands.
func parallelTestPrograms() []*Program {
	sbf := NewProgram("SB+fences")
	sbf.AddThread(Write(0, 1), Fence(), Read(1, "r0"))
	sbf.AddThread(Write(1, 1), Fence(), Read(0, "r1"))

	tas := NewProgram("tas-race")
	tas.AddThread(TestAndSet(0, "r0"))
	tas.AddThread(TestAndSet(0, "r1"))

	coww := NewProgram("coww")
	coww.AddThread(Write(0, 1), Write(1, 1))
	coww.AddThread(Write(0, 2), Write(1, 2))

	big := NewProgram("three-thread")
	big.AddThread(Write(0, 1), FetchAdd(1, "a0", 1), Read(2, "r0"))
	big.AddThread(Write(1, 1), FetchAdd(2, "a1", 1), Read(0, "r1"))
	big.AddThread(Write(2, 1), FetchAdd(0, "a2", 1), Read(1, "r2"))

	return []*Program{storeBuffering(), messagePassing(), sbf, tas, coww, big}
}

// sequentialKeys enumerates the program sequentially and returns the
// canonical key of every candidate, in enumeration order.
func sequentialKeys(t *testing.T, p *Program) []string {
	t.Helper()
	var keys []string
	if err := EnumerateFunc(p, func(x *Execution) bool {
		keys = append(keys, x.Key())
		return true
	}); err != nil {
		t.Fatalf("%s: EnumerateFunc: %v", p.Name, err)
	}
	return keys
}

// parallelKeys enumerates the program with the given worker count and
// returns the canonical key of every visited candidate, sorted.
func parallelKeys(t *testing.T, p *Program, workers int, opts ...EnumOption) []string {
	t.Helper()
	var keys []string
	err := EnumerateFunc(p, func(x *Execution) bool {
		keys = append(keys, x.Key())
		return true
	}, append(opts, EnumWorkers(workers))...)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
	}
	sort.Strings(keys)
	return keys
}

// sameKeys fails the test unless got and want hold the same keys.
func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: visited %d executions, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: multisets differ at %d:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

func TestEnumerateParallelUnorderedSameMultiset(t *testing.T) {
	for _, p := range parallelTestPrograms() {
		want := sequentialKeys(t, p)
		sort.Strings(want)
		for _, workers := range []int{2, 8} {
			sameKeys(t, fmt.Sprintf("%s workers=%d", p.Name, workers), parallelKeys(t, p, workers), want)
		}
	}
}

func TestEnumerateParallelEarlyStopExactlyK(t *testing.T) {
	for _, p := range parallelTestPrograms() {
		total := len(sequentialKeys(t, p))
		for _, workers := range []int{1, 2, 8} {
			k := total / 2
			if k == 0 {
				k = 1
			}
			visited := 0
			err := EnumerateFunc(p, func(x *Execution) bool {
				visited++
				return visited < k
			}, EnumWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
			}
			if visited != k {
				t.Fatalf("%s workers=%d: early stop after %d visits, want exactly %d", p.Name, workers, visited, k)
			}
		}
	}
}

func TestEnumerateParallelContextCancellation(t *testing.T) {
	p := parallelTestPrograms()[5] // three-thread, thousands of candidates

	// Already-cancelled context: no candidate is ever visited.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		visits := 0
		err := EnumerateFunc(p, func(*Execution) bool {
			visits++
			return true
		}, EnumContext(cancelled), EnumWorkers(workers))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if visits != 0 {
			t.Fatalf("workers=%d: %d visits after pre-cancelled context", workers, visits)
		}
	}

	// Cancellation mid-enumeration surfaces the context error.
	ctx, cancelMid := context.WithCancel(context.Background())
	visits := 0
	err := EnumerateFunc(p, func(*Execution) bool {
		visits++
		if visits == 10 {
			cancelMid()
		}
		return true
	}, EnumContext(ctx), EnumWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
	}
}

func TestEnumerateParallelFilterRunsInWorkers(t *testing.T) {
	// The classifier sees every assembled candidate; visit sees only the
	// survivors, each carrying the class the classifier gave it.
	p := storeBuffering()
	want := sequentialKeys(t, p)
	keep := func(x *Execution) bool {
		// Keep executions where the first read reads from the initial
		// write.
		for _, e := range x.Events {
			if !e.IsRead() || e.Thread != 0 {
				continue
			}
			if w, ok := x.ReadsFrom(e.Index); ok {
				return x.Events[w].IsInit()
			}
		}
		return false
	}
	var wantKept []string
	if err := EnumerateFunc(p, func(x *Execution) bool {
		if keep(x) {
			wantKept = append(wantKept, x.Key())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(wantKept) == 0 || len(wantKept) == len(want) {
		t.Fatalf("filter is not discriminating: kept %d of %d", len(wantKept), len(want))
	}
	sort.Strings(wantKept)
	// A kept candidate's class is 1 plus the event its last read reads
	// from, so survivors carry different classes.
	class := func(x *Execution) uint64 {
		if !keep(x) {
			return 0
		}
		last := 0
		for _, e := range x.Events {
			if w, ok := x.ReadsFrom(e.Index); ok {
				last = w
			}
		}
		return uint64(last) + 1
	}
	newClass := func() func(*Execution) uint64 { return class }
	sameKeys(t, "filtered", parallelKeys(t, p, 4, EnumClassify(newClass)), wantKept)
	err := EnumerateFunc(p, func(x *Execution) bool {
		if x.Class() != class(x) {
			t.Errorf("visit reads class %d, the classifier gave %d", x.Class(), class(x))
		}
		return true
	}, EnumClassify(newClass), EnumWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
}

// wideProgram has three locations with three non-initial writes each
// (6^3 ws orders) and three four-choice reads, which puts its candidate
// space above AutoEnumThreshold.
func wideProgram() *Program {
	p := NewProgram("wide")
	p.AddThread(Write(0, 1), Write(1, 1), Write(2, 1), Read(0, "r0"))
	p.AddThread(Write(0, 2), Write(1, 2), Write(2, 2), Read(1, "r1"))
	p.AddThread(Write(0, 3), Write(1, 3), Write(2, 3), Read(2, "r2"))
	return p
}

func TestEnumerateParallelDefaultWorkers(t *testing.T) {
	// workers <= 0 applies the candidate-count rule; the call must still
	// enumerate everything, below the threshold and above it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, p := range []*Program{storeBuffering(), wideProgram()} {
		want, err := CountCandidates(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, -1} {
			got := 0
			if err := EnumerateFunc(p, func(*Execution) bool {
				got++
				return true
			}, EnumWorkers(workers)); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: visited %d, want %d", p.Name, workers, got, want)
			}
		}
	}
}

// fanInProgram has six single-write threads and one reader of x: the
// reader has no po successor, so no candidate violates uniproc and the
// uniproc walk visits all 7 × 6! = 5,040 candidates, above
// AutoEnumThreshold.
func fanInProgram() *Program {
	p := NewProgram("fan-in")
	for i := 1; i <= 6; i++ {
		p.AddThread(Write(0, Value(i)))
	}
	p.AddThread(Read(0, "r0"))
	return p
}

// TestAutoEnumWorkers pins the candidate-count rule EnumWorkers(n <= 0)
// applies, for the full walk and the uniproc walk alike: GOMAXPROCS
// workers exactly when the walk visits at least AutoEnumThreshold
// candidates, 1 below it, clamped to the walk's index count. The uniproc
// walk counts its own candidates, not CountCandidates: wideProgram is
// above the threshold in the full walk and below it in the uniproc walk.
// GOMAXPROCS is raised so that the two answers differ on any machine.
func TestAutoEnumWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, uniproc := range []bool{false, true} {
		var below, above int
		for _, p := range append(parallelTestPrograms(), wideProgram(), fanInProgram()) {
			var opts []EnumOption
			if uniproc {
				opts = append(opts, EnumUniprocAdjacentRMW())
			}
			n := 0
			if err := EnumerateFunc(p, func(*Execution) bool { n++; return true }, opts...); err != nil {
				t.Fatal(err)
			}
			sp, err := newEnumSpace(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.buildWalk(context.Background(), uniproc); err != nil {
				t.Fatal(err)
			}
			want := 1
			if n >= AutoEnumThreshold {
				want = min(runtime.GOMAXPROCS(0), sp.total())
				above++
			} else {
				below++
			}
			for _, workers := range []int{0, -3} {
				if got := sp.workers(workers); got != want {
					t.Errorf("%s (uniproc %t, %d candidates): workers(%d) = %d, want %d", p.Name, uniproc, n, workers, got, want)
				}
			}
			if got := sp.workers(1); got != 1 {
				t.Errorf("%s (uniproc %t): workers(1) = %d, want 1", p.Name, uniproc, got)
			}
			if got, want := sp.workers(3), min(3, sp.total()); got != want {
				t.Errorf("%s (uniproc %t): workers(3) = %d, want %d", p.Name, uniproc, got, want)
			}
		}
		if below == 0 || above == 0 {
			t.Fatalf("uniproc %t: programs do not straddle the threshold: %d below, %d above", uniproc, below, above)
		}
	}
}

func TestEnumerateFuncWorkersOption(t *testing.T) {
	// An odd worker count splits the index space unevenly; every
	// candidate is still visited exactly once.
	p := messagePassing()
	want := sequentialKeys(t, p)
	sort.Strings(want)
	sameKeys(t, "workers=3", parallelKeys(t, p, 3), want)
}
