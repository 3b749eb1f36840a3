package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
)

// TestVerdictOutcomesMatchOutcomeOf holds the outcome collector of the
// Verdicts walk, which fingerprints a candidate by the values its outcome
// key renders and builds each distinct outcome and its key once, to
// OutcomeOf. On 100 generated programs, each type's verdict must count
// the executions Model.ValidExecutionsFunc visits under that type, hold
// exactly the keys OutcomeOf(x).Key() gives over them, and store every
// outcome under its own Key().
func TestVerdictOutcomesMatchOutcomeOf(t *testing.T) {
	ctx := context.Background()
	outcomes := 0
	for _, p := range memmodeltest.Programs(29, 100, 20_000) {
		vs, err := Verdicts(ctx, p, AllTypes(), 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, v := range vs {
			valid, want := 0, map[string]bool{}
			err := NewModel(v.Type).ValidExecutionsFunc(p, func(x *memmodel.Execution) bool {
				valid++
				want[OutcomeOf(x).Key()] = true
				return true
			})
			if err != nil {
				t.Fatalf("%s under %s: %v", p.Name, v.Type, err)
			}
			wantKeys := slices.Sorted(maps.Keys(want))
			if got := v.Outcomes.Keys(); v.Valid != valid || !slices.Equal(got, wantKeys) {
				t.Errorf("%s under %s: the verdict counts %d valid executions with outcomes %q; OutcomeOf gives %d and %q",
					p.Name, v.Type, v.Valid, got, valid, wantKeys)
			}
			for k, o := range v.Outcomes.byKey {
				if o.Key() != k {
					t.Errorf("%s under %s: the outcome stored under %q has key %q", p.Name, v.Type, k, o.Key())
				}
			}
			outcomes += len(wantKeys)
		}
	}
	t.Logf("%d outcomes agree", outcomes)
}
