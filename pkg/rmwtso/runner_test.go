package rmwtso_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/pkg/rmwtso"
)

// resultKey identifies one verdict independent of completion order.
func resultKey(r rmwtso.TestResult) string {
	return fmt.Sprintf("%s|%s", r.Test.Name, r.Atomicity)
}

// TestParallelMatchesSequential runs the full litmus suite sequentially
// and at parallelism 8 (under -race in CI) and asserts the verdict sets
// are identical: same tests, same truth values, same candidate and valid
// execution counts, order-independent.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := rmwtso.Suite().Run(rmwtso.WithParallelism(1))
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par, err := rmwtso.Suite().Run(rmwtso.WithParallelism(8))
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if len(seq) == 0 {
		t.Fatal("sequential run returned no results")
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel run returned %d results, sequential %d", len(par), len(seq))
	}

	type verdict struct {
		holds, matches bool
		valid, cands   int
		outcomes       int
	}
	index := func(results []rmwtso.TestResult) map[string]verdict {
		m := map[string]verdict{}
		for _, r := range results {
			m[resultKey(r)] = verdict{
				holds:    r.Holds,
				matches:  r.Matches,
				valid:    r.ValidExecutions,
				cands:    r.Candidates,
				outcomes: r.Outcomes.Len(),
			}
		}
		return m
	}
	want, got := index(seq), index(par)
	if len(got) != len(want) {
		t.Fatalf("parallel run has %d distinct verdicts, sequential %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("verdict %s missing from parallel run", key)
			continue
		}
		if g != w {
			t.Errorf("verdict %s differs: parallel %+v, sequential %+v", key, g, w)
		}
	}
	for _, r := range par {
		if !r.Matches {
			t.Errorf("verdict %s does not match the recorded expectation", resultKey(r))
		}
	}
}

// TestObserverStreamsEveryVerdict checks that the observer sees exactly
// one event per work unit, serially, and that each event carries a litmus
// verdict.
func TestObserverStreamsEveryVerdict(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	results, err := rmwtso.Suite().Run(
		rmwtso.WithParallelism(8),
		rmwtso.WithObserver(func(e rmwtso.Event) {
			if e.Litmus == nil {
				t.Error("non-litmus event from a suite run")
				return
			}
			mu.Lock()
			seen = append(seen, resultKey(*e.Litmus))
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(results) {
		t.Fatalf("observer saw %d events, runner returned %d results", len(seen), len(results))
	}
	dup := map[string]bool{}
	for _, k := range seen {
		if dup[k] {
			t.Errorf("verdict %s streamed twice", k)
		}
		dup[k] = true
	}
}

// TestContextCancelStopsSweep cancels a suite sweep from its observer
// after the first verdict and asserts the run stops early with the
// context's error instead of completing all units.
func TestContextCancelStopsSweep(t *testing.T) {
	total := rmwtso.Suite().Len() * len(rmwtso.AllTypes())
	if total < 4 {
		t.Fatalf("suite too small for a meaningful cancellation test: %d units", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	results, err := rmwtso.Suite().Run(
		rmwtso.WithContext(ctx),
		rmwtso.WithParallelism(2),
		rmwtso.WithObserver(func(rmwtso.Event) {
			events++ // observer calls are serialized by the Runner
			if events == 1 {
				cancel()
			}
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned error %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatalf("cancelled run returned %d results, want none", len(results))
	}
	// At most the in-flight units (one per worker) finish after cancel.
	if events >= total {
		t.Fatalf("observer saw %d of %d events despite cancellation", events, total)
	}
}

// TestPreCancelledContext checks that a runner with an already-cancelled
// context does no work at all.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	events := 0
	_, err := rmwtso.Suite().Run(
		rmwtso.WithContext(ctx),
		rmwtso.WithObserver(func(rmwtso.Event) { events++ }),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	if events != 0 {
		t.Fatalf("observer saw %d events with a pre-cancelled context", events)
	}
}

// TestSuiteFilter exercises the registry-backed glob filtering.
func TestSuiteFilter(t *testing.T) {
	names := rmwtso.Suite().Filter("SB*").Names()
	if len(names) != 2 || names[0] != "SB" || names[1] != "SB+fences" {
		t.Fatalf("Filter(SB*) = %v, want [SB SB+fences]", names)
	}
	paper := rmwtso.PaperSuite()
	if paper.Len() != 5 {
		t.Fatalf("paper suite has %d tests, want 5", paper.Len())
	}
	dekker := rmwtso.Suite().Filter("dekker-*")
	if dekker.Len() != 4 {
		t.Fatalf("Filter(dekker-*) matched %d tests, want 4: %v", dekker.Len(), dekker.Names())
	}
	if _, err := rmwtso.Suite().Filter("[").Run(); err == nil {
		t.Fatal("malformed pattern did not surface an error from Run")
	}
	if v := rmwtso.Cpp11Suite().Filter("sc-*"); len(v.Names()) != 3 {
		t.Fatalf("Cpp11 Filter(sc-*) = %v, want 3 programs", v.Names())
	}
}

// TestSuiteFilterAdHocView pins that Filter selects from the view's own
// tests, so a view of tests that are not in the registry keeps them, and
// that the C/C++11 view narrows its own programs the same way.
func TestSuiteFilterAdHocView(t *testing.T) {
	adhoc, err := rmwtso.ParseTest(`
name: adhoc-sb
thread P0:
  store x, 1
  r0 = load y
thread P1:
  store y, 1
  r1 = load x
exists (P0:r0=0 /\ P1:r1=0)
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"", "*", "adhoc-*", "adhoc-sb"} {
		if got := rmwtso.TestsOf(adhoc).Filter(pattern).Names(); len(got) != 1 || got[0] != "adhoc-sb" {
			t.Errorf("Filter(%q) = %v, want [adhoc-sb]", pattern, got)
		}
	}
	mixed := rmwtso.TestsOf(rmwtso.FindTest("SB"), adhoc)
	if got := mixed.Filter("SB*").Names(); len(got) != 1 || got[0] != "SB" {
		t.Errorf("mixed Filter(SB*) = %v, want [SB]", got)
	}
	if got := mixed.Filter("*sb").Names(); len(got) != 1 || got[0] != "adhoc-sb" {
		t.Errorf("mixed Filter(*sb) = %v, want [adhoc-sb]", got)
	}
	_, err = rmwtso.TestsOf(adhoc).Filter("[").Run()
	if want := `litmus: bad filter pattern "["`; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("malformed pattern on an ad-hoc view: err = %v, want prefix %s", err, want)
	}
	if got := rmwtso.Cpp11Suite().Filter("sc-*").Filter("*iriw").Names(); len(got) != 1 || got[0] != "sc-iriw" {
		t.Errorf("Cpp11 Filter(sc-*).Filter(*iriw) = %v, want [sc-iriw]", got)
	}
}

// TestWithRMWTypesRestrictsSweep checks that WithRMWTypes limits the
// checked types.
func TestWithRMWTypesRestrictsSweep(t *testing.T) {
	results, err := rmwtso.Suite().Filter("SB").Run(rmwtso.WithRMWTypes(rmwtso.Type2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if results[0].Atomicity != rmwtso.Type2 {
		t.Fatalf("got atomicity %s, want type-2", results[0].Atomicity)
	}
}

// TestEnumerateFuncMatchesEnumerate checks the streaming enumeration
// against the materializing wrapper and its early-stop contract.
func TestEnumerateFuncMatchesEnumerate(t *testing.T) {
	test := rmwtso.FindTest("dekker-write-replacement (Fig. 3)")
	if test == nil {
		t.Fatal("Fig. 3 test not registered")
	}
	all, err := rmwtso.EnumerateExecutions(test.Program)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	err = rmwtso.EnumerateExecutionsFunc(test.Program, func(x *rmwtso.Execution) bool {
		streamed++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(all) {
		t.Fatalf("streaming visited %d candidates, materializing returned %d", streamed, len(all))
	}

	visited := 0
	err = rmwtso.EnumerateExecutionsFunc(test.Program, func(*rmwtso.Execution) bool {
		visited++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 1 {
		t.Fatalf("early-stopped enumeration visited %d candidates, want 1", visited)
	}
}

// TestParallelMappingValidation cross-checks the parallel mapping sweep
// against direct sequential validation.
func TestParallelMappingValidation(t *testing.T) {
	progs := rmwtso.Cpp11ValidationSuite().Programs()
	results, err := rmwtso.NewRunner(rmwtso.WithParallelism(8)).ValidateMappings(progs...)
	if err != nil {
		t.Fatal(err)
	}
	want := len(progs) * len(rmwtso.AllMappings()) * len(rmwtso.AllTypes())
	if len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	unsound := 0
	for _, r := range results {
		if !r.Sound {
			unsound++
			if r.Mapping != rmwtso.WriteMapping || r.Atomicity != rmwtso.Type3 {
				t.Errorf("unexpected unsound combination: %s under %s", r.Mapping, r.Atomicity)
			}
		}
	}
	if unsound != 1 {
		t.Fatalf("got %d unsound combinations, want exactly 1 (write-mapping under type-3)", unsound)
	}
}
