package rmwtso_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/pkg/rmwtso"
)

// fabricatedResults builds one UnitResult per plan unit without running
// any simulation: each result names its unit's trace, RMW type and core
// count, which is all Runs checks of its contents.
func fabricatedResults(plan *rmwtso.Plan) []rmwtso.UnitResult {
	var out []rmwtso.UnitResult
	for _, u := range plan.Units() {
		r := &rmwtso.SimResult{Workload: u.Trace, RMWType: u.Type}
		r.PerCore = slices.Grow(r.PerCore, u.Key.Cores)[:u.Key.Cores] // zeroed per-core stats
		out = append(out, rmwtso.UnitResult{
			Unit: u.ID, Trace: u.Trace, Type: u.Type, Seed: u.Seed,
			Result: r,
		})
	}
	return out
}

// descsOf renders the pinned "id (trace under type)" form, sorted.
func descsOf(units []rmwtso.Unit) []string {
	var out []string
	for _, u := range units {
		out = append(out, fmt.Sprintf("%s (%s under %s)", u.ID, u.Trace, u.Type))
	}
	sort.Strings(out)
	return out
}

// boundedWant mirrors the pinned bounded-list rendering: first 8 sorted
// entries, remainder summarized as "and K more".
func boundedWant(descs []string) string {
	if len(descs) <= 8 {
		return strings.Join(descs, ", ")
	}
	return fmt.Sprintf("%s and %d more", strings.Join(descs[:8], ", "), len(descs)-8)
}

// TestRunsMissingMessageFormat pins the merge-path missing-units message:
// sorted unit IDs, bounded at 8 plus a remainder count. The exact format
// is what operators grep in CI logs, so it must not drift silently.
func TestRunsMissingMessageFormat(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() <= 8 {
		t.Fatalf("plan too small (%d units) to exercise the bound", plan.Len())
	}
	_, err = plan.Runs(nil)
	if err == nil {
		t.Fatal("empty merge succeeded")
	}
	want := fmt.Sprintf("rmwtso: %d of %d plan units missing: %s",
		plan.Len(), plan.Len(), boundedWant(descsOf(plan.Units())))
	if err.Error() != want {
		t.Errorf("missing-units message:\n got %q\nwant %q", err, want)
	}

	// A single missing unit is spelled out in full, no remainder clause.
	units := fabricatedResults(plan)
	dropped := plan.Units()[3]
	_, err = plan.Runs(append(append([]rmwtso.UnitResult(nil), units[:3]...), units[4:]...))
	if err == nil {
		t.Fatal("merge with a dropped unit succeeded")
	}
	want = fmt.Sprintf("rmwtso: 1 of %d plan units missing: %s (%s under %s)",
		plan.Len(), dropped.ID, dropped.Trace, dropped.Type)
	if err.Error() != want {
		t.Errorf("single-missing message:\n got %q\nwant %q", err, want)
	}
}

// TestRunsDuplicateMessageFormat pins the duplicated-units message: every
// duplicated ID listed (not just the first hit), sorted and bounded.
func TestRunsDuplicateMessageFormat(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	units := fabricatedResults(plan)
	dupA, dupB := plan.Units()[5], plan.Units()[1]
	doubled := append(append([]rmwtso.UnitResult(nil), units...), units[5], units[1], units[1])

	_, err = plan.Runs(doubled)
	if err == nil {
		t.Fatal("merge with duplicated units succeeded")
	}
	want := fmt.Sprintf("rmwtso: 2 of %d plan units appear twice or more: %s",
		plan.Len(), boundedWant(descsOf([]rmwtso.Unit{dupA, dupB})))
	if err.Error() != want {
		t.Errorf("duplicate-units message:\n got %q\nwant %q", err, want)
	}
}

// TestRunsPartialSplitsCompleteGroups verifies RunsPartial keeps whole
// groups only and reports missing IDs sorted.
func TestRunsPartialSplitsCompleteGroups(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	units := fabricatedResults(plan)
	// Drop the last plan unit: exactly its group should vanish.
	lost := plan.Units()[plan.Len()-1]
	runs, missing, err := plan.RunsPartial(units[:len(units)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != lost.ID {
		t.Fatalf("missing %v, want [%s]", missing, lost.ID)
	}
	full, err := plan.Runs(units)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(full)-1 {
		t.Fatalf("partial runs %d, full %d", len(runs), len(full))
	}
	for _, r := range runs {
		if r.Name == lost.Trace {
			t.Errorf("incomplete group %s leaked into the partial runs", lost.Trace)
		}
	}
	// With everything present RunsPartial degenerates to Runs.
	runs, missing, err = plan.RunsPartial(units)
	if err != nil || len(missing) != 0 || len(runs) != len(full) {
		t.Fatalf("complete RunsPartial: runs %d missing %v err %v", len(runs), missing, err)
	}
}

// TestRunsPartialAllUnitsDead pins the worst case a coordinated sweep
// can legitimately end in — every unit dead-lettered: RunsPartial must
// return zero runs and every plan unit ID, sorted, with no error. This
// is the input the partial-report path renders, so a panic or a
// zero-value table here would take the failure report down with the
// sweep.
func TestRunsPartialAllUnitsDead(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, input := range map[string][]rmwtso.UnitResult{"nil": nil, "empty": {}} {
		runs, missing, err := plan.RunsPartial(input)
		if err != nil {
			t.Fatalf("%s input: %v", name, err)
		}
		if len(runs) != 0 {
			t.Fatalf("%s input produced %d runs from zero results", name, len(runs))
		}
		if len(missing) != plan.Len() {
			t.Fatalf("%s input: %d missing IDs, want all %d", name, len(missing), plan.Len())
		}
		if !sort.SliceIsSorted(missing, func(i, j int) bool { return missing[i] < missing[j] }) {
			t.Fatalf("%s input: missing IDs not sorted: %v", name, missing)
		}
		ids := map[rmwtso.UnitID]bool{}
		for _, u := range plan.Units() {
			ids[u.ID] = true
		}
		for _, id := range missing {
			if !ids[id] {
				t.Fatalf("%s input: alien missing ID %s", name, id)
			}
		}
	}
	// Alien and result-less units must still be loud errors, not silently
	// folded into the missing list.
	if _, _, err := plan.RunsPartial([]rmwtso.UnitResult{{Unit: "feedfeedfeedfeed"}}); err == nil {
		t.Fatal("alien unit accepted by RunsPartial")
	}
	u := plan.Units()[0]
	noResult := []rmwtso.UnitResult{{Unit: u.ID, Trace: u.Trace, Type: u.Type, Seed: u.Seed}}
	if _, _, err := plan.RunsPartial(noResult); err == nil {
		t.Fatal("result-less unit accepted by RunsPartial")
	}
}
