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
// key renders and keeps each distinct outcome as one row of values, to
// OutcomeOf. On 100 generated programs, each type's verdict must count
// the executions Model.ValidExecutionsFunc visits under that type, hold
// exactly the keys OutcomeOf(x).Key() gives over them, and build from
// its rows outcomes whose Key() is the key it renders from them.
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
			got := v.Outcomes.Keys()
			if v.Valid != valid || !slices.Equal(got, wantKeys) {
				t.Errorf("%s under %s: the verdict counts %d valid executions with outcomes %q; OutcomeOf gives %d and %q",
					p.Name, v.Type, v.Valid, got, valid, wantKeys)
			}
			for i, o := range v.Outcomes.Outcomes() {
				if k := got[i]; o.Key() != k {
					t.Errorf("%s under %s: the outcome built for %q has key %q", p.Name, v.Type, k, o.Key())
				}
			}
			outcomes += len(wantKeys)
		}
	}
	t.Logf("%d outcomes agree", outcomes)
}
