package litmus

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
)

// storeLoadX3 returns testdata/storeloadx3.litmus, a 303-byte inline
// program: three threads, each storing to and then loading x three times.
// Its one location has 9! write orders and 10^9 reads-from assignments,
// 3.6×10^14 candidates, of which 1,824,912 satisfy uniproc. CI's
// litmus-smoke job checks its verdicts through cmd/litmus.
func storeLoadX3(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("testdata/storeloadx3.litmus")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// walkTests returns the programs of the walk-level differential as
// tests: 100 generated programs of at most 20,000 candidates, every
// registry litmus test, and every registry C/C++11 program compiled under
// each mapping. Programs without a registry condition get one that probes
// their first register (or their first location) for the value 1.
func walkTests(t *testing.T) []*Test {
	t.Helper()
	var programs []*memmodel.Program
	programs = append(programs, memmodeltest.Programs(23, 100, 20_000)...)
	for _, p := range cpp11.AllPrograms() {
		for _, m := range cpp11.AllMappings() {
			c, err := cpp11.Compile(p, m)
			if err != nil {
				t.Fatal(err)
			}
			programs = append(programs, c)
		}
	}
	tests := AllTests()
	for _, p := range programs {
		tests = append(tests, &Test{Name: p.Name, Program: p, Cond: ExistsCond(probe(p))})
	}
	return tests
}

// probe returns a term on the program's first register, or on its first
// location when no instruction writes a register.
func probe(p *memmodel.Program) Term {
	for ti, th := range p.Threads {
		for _, in := range th {
			if in.Reg != "" {
				return RegTerm(memmodel.ThreadID(ti), in.Reg, 1)
			}
		}
	}
	return MemTerm(p.Addrs()[0], 1)
}

// TestUniprocAdjacentRMWWalkMatchesFilteredFullWalk is the walk-level
// differential of memmodel.EnumUniprocAdjacentRMW on generated and
// registry programs: the walk must visit exactly the multiset of
// full-walk candidates that satisfy Execution.Uniproc and the reference
// RMW predicate memmodeltest.AdjacentRMW, at 1, 2 and 8 workers; every
// full-walk candidate that core.Checker.Valid accepts under some type must
// satisfy the predicate; CountCandidates must equal the full walk's
// visits; and a check (which walks only the pruned candidates, and checks
// every type it is asked for in one walk) must find the valid count,
// outcomes and condition truth that filtering the full walk with
// core.Checker.Valid finds, type by type. The check runs for all three
// types, for each type alone and for a two-type subset, at 1, 2 and 8
// workers.
func TestUniprocAdjacentRMWWalkMatchesFilteredFullWalk(t *testing.T) {
	ctx := context.Background()
	types := core.AllTypes()
	typeSets := [][]core.AtomicityType{types, {core.Type1}, {core.Type2}, {core.Type3}, {core.Type3, core.Type1}}
	pruned := 0
	for _, test := range walkTests(t) {
		p := test.Program
		visits := 0
		var want []string
		valid := map[core.AtomicityType]int{}
		outcomes := map[core.AtomicityType]map[string]core.Outcome{}
		for _, typ := range types {
			outcomes[typ] = map[string]core.Outcome{}
		}
		c := core.NewChecker()
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			visits++
			if !x.Uniproc() {
				return true
			}
			adjacent := memmodeltest.AdjacentRMW(x)
			if adjacent {
				want = append(want, x.Key())
			} else {
				pruned++
			}
			for _, typ := range types {
				if c.Valid(x, typ) {
					if !adjacent {
						t.Fatalf("%s: %s accepts a candidate whose RMW does not read the ws-predecessor of its write half:\n%s", p.Name, typ, x)
					}
					valid[typ]++
					o := core.OutcomeOf(x)
					outcomes[typ][o.Key()] = o
				}
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: full walk: %v", p.Name, err)
		}
		count, err := memmodel.CountCandidates(p)
		if err != nil {
			t.Fatal(err)
		}
		if count != visits {
			t.Errorf("%s: CountCandidates = %d, the full walk visits %d", p.Name, count, visits)
		}
		sort.Strings(want)
		for _, workers := range []int{1, 2, 8} {
			var got []string
			err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
				got = append(got, x.Key())
				return true
			}, memmodel.EnumUniprocAdjacentRMW(), memmodel.EnumWorkers(workers))
			if err != nil {
				t.Fatalf("%s: pruned walk: %v", p.Name, err)
			}
			sort.Strings(got)
			if d := diffKeys(got, want); d != "" {
				t.Fatalf("%s workers=%d: the pruned walk differs from the full walk's uniproc candidates with adjacent RMWs: %s\n%s",
					p.Name, workers, d, p)
			}
			for _, set := range typeSets {
				results, err := test.Check(ctx, set, workers)
				if err != nil {
					t.Fatalf("%s under %v: %v", p.Name, set, err)
				}
				if len(results) != len(set) {
					t.Fatalf("%s under %v: %d results", p.Name, set, len(results))
				}
				for i, res := range results {
					typ := set[i]
					holds := condHolds(test.Cond, outcomes[typ])
					wantKeys := slices.Sorted(maps.Keys(outcomes[typ]))
					if res.Atomicity != typ || res.Candidates != count || res.ValidExecutions != valid[typ] ||
						res.Holds != holds || !slices.Equal(res.Outcomes.Keys(), wantKeys) {
						t.Errorf("%s under %s (of %v, workers=%d): check %s candidates=%d valid=%d holds=%t outcomes=%v; full walk %d, %d, %t, %v",
							p.Name, typ, set, workers, res.Atomicity, res.Candidates, res.ValidExecutions, res.Holds,
							res.Outcomes.Keys(), count, valid[typ], holds, wantKeys)
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no uniproc candidate breaks the RMW condition: the pruning went unchecked")
	}
	t.Logf("%d uniproc candidates of the full walks break the RMW condition", pruned)
}

// condHolds is the reference evaluation of a condition over outcomes
// keyed by Outcome.Key, reading each term from an outcome's maps, where a
// missing register or location reads 0.
func condHolds(c Condition, outcomes map[string]core.Outcome) bool {
	witnesses := 0
	for _, o := range outcomes {
		holds := true
		for _, term := range c.Terms {
			v := o.Registers[term.Register]
			if term.IsMemory {
				v = o.Memory[term.Addr]
			}
			holds = holds && v == term.Value
		}
		if holds {
			witnesses++
		}
	}
	switch c.Quantifier {
	case Exists:
		return witnesses > 0
	case NotExists:
		return witnesses == 0
	default:
		return witnesses == len(outcomes)
	}
}

// subsetOf reports whether every key of sorted keys a is in sorted keys b.
func subsetOf(a, b []string) bool {
	for _, k := range a {
		if _, ok := slices.BinarySearch(b, k); !ok {
			return false
		}
	}
	return true
}

// TestTypeStrengthInclusion tests core.AtomicityType.Stronger on every
// walked candidate of the walk-level differential's programs: the mask of
// types a candidate is valid under must be monotone in strength order
// (valid under type-1 implies valid under type-2, which implies valid
// under type-3), so every test's valid counts and outcome sets nest in
// the same order. Nothing in the checker relies on the inclusion.
func TestTypeStrengthInclusion(t *testing.T) {
	ctx := context.Background()
	types := core.AllTypes()
	walked := 0
	for _, test := range walkTests(t) {
		p := test.Program
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			walked++
			for i := 1; i < len(types); i++ {
				if x.Class()&types[i-1].Bit() != 0 && x.Class()&types[i].Bit() == 0 {
					t.Errorf("%s: a candidate valid under %s is invalid under %s:\n%s", p.Name, types[i-1], types[i], x)
					return false
				}
			}
			return true
		}, memmodel.EnumUniprocAdjacentRMW(), memmodel.EnumClassify(func() func(*memmodel.Execution) uint64 {
			classify := core.Classifier(types...)()
			// Keep every walked candidate: bit 63 marks the visit.
			return func(x *memmodel.Execution) uint64 { return classify(x) | 1<<63 }
		}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		results, err := test.Check(ctx, types, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i := 1; i < len(results); i++ {
			stronger, weaker := results[i-1], results[i]
			if stronger.ValidExecutions > weaker.ValidExecutions || !subsetOf(stronger.Outcomes.Keys(), weaker.Outcomes.Keys()) {
				t.Errorf("%s: %s finds %d valid, outcomes %v; %s finds %d, %v",
					p.Name, stronger.Atomicity, stronger.ValidExecutions, stronger.Outcomes.Keys(),
					weaker.Atomicity, weaker.ValidExecutions, weaker.Outcomes.Keys())
			}
		}
	}
	if walked == 0 {
		t.Fatal("no candidate walked")
	}
}

// TestVerdictsSameAtAnyWorkers pins that a verdict does not depend on its
// worker count: the parallel walk visits candidates in completion order,
// so the outcome sets' rows must be sorted, and core.Verdicts of every
// walk-test program under all three types must be reflect.DeepEqual at 1,
// 2 and 8 workers, outcome sets included.
func TestVerdictsSameAtAnyWorkers(t *testing.T) {
	ctx := context.Background()
	for _, test := range walkTests(t) {
		want, err := core.Verdicts(ctx, test.Program, core.AllTypes(), 1)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := core.Verdicts(ctx, test.Program, core.AllTypes(), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", test.Name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the verdicts at %d workers differ from one worker's:\n%+v\n%+v", test.Name, workers, got, want)
			}
		}
	}
}

// diffKeys describes the first difference between two sorted key lists,
// or returns "" when they are equal.
func diffKeys(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d got %s, want %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d keys, want %d", len(got), len(want))
	}
	return ""
}

// TestCountCandidatesLargeInlineProgram counts storeLoadX3, 9! × 10^9
// candidates, in closed form: counting must not walk the reads-from
// assignments.
func TestCountCandidatesLargeInlineProgram(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's slowdown makes the time bound meaningless")
	}
	src := storeLoadX3(t)
	if len(src) != 303 {
		t.Fatalf("the program source is %d bytes, want 303", len(src))
	}
	test, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := memmodel.CountCandidates(test.Program)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("CountCandidates took %v, want under 2s", d)
	}
	if n != 362_880_000_000_000 {
		t.Fatalf("CountCandidates = %d, want 9! × 10^9 = 362,880,000,000,000", n)
	}
}

// TestRunParallelCancelDuringTableBuild cancels a check of storeLoadX3
// about 10 ms in, usually while it is still searching for the program's
// uniproc shares (about 45 ms of a check of about 0.6 s on a 2-vCPU
// container): the check must stop with context.Canceled within a second,
// sequential or parallel. memmodel's TestTableSearchPollsContext checks
// the search's own polling without timing.
func TestRunParallelCancelDuringTableBuild(t *testing.T) {
	test, err := Parse(storeLoadX3(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(10*time.Millisecond, cancel)
		start := time.Now()
		_, err := test.Check(ctx, core.AllTypes(), workers)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if elapsed > time.Second {
			t.Errorf("workers=%d: the cancelled check returned after %v, want within 1s", workers, elapsed)
		}
	}
}
