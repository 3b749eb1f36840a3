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
// key renders, keeps each distinct outcome as one row of values and
// unions the classes of the candidates that reach it, to a reference
// that decides every uniproc candidate with DeriveAto, independently of
// Classifier. On 300 generated programs, each type's verdict must count
// the candidates DeriveAto finds valid under that type and hold exactly
// the keys OutcomeOf(x).Key() gives over them. Some outcome must be
// reached by candidates valid under different sets of types, so that a
// collector keeping only one candidate's class fails.
func TestVerdictOutcomesMatchOutcomeOf(t *testing.T) {
	ctx := context.Background()
	types := AllTypes()
	outcomes, mixed := 0, 0
	programs := append(memmodeltest.Programs(29, 200, 20_000), memmodeltest.Programs(11, 100, 20_000)...)
	for _, p := range programs {
		vs, err := Verdicts(ctx, p, types, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		valid := make([]int, len(types))
		want := make([]map[string]bool, len(types))
		for i := range want {
			want[i] = map[string]bool{}
		}
		// classes maps an outcome key to the classes of the valid
		// candidates that reach it, each a mask of AtomicityType.Bit.
		classes := map[string]map[uint64]bool{}
		err = memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			key := OutcomeOf(x).Key()
			class := uint64(0)
			for i, typ := range types {
				if DeriveAto(x, typ).Valid {
					class |= typ.Bit()
					valid[i]++
					want[i][key] = true
				}
			}
			if class != 0 {
				if classes[key] == nil {
					classes[key] = map[uint64]bool{}
				}
				classes[key][class] = true
			}
			return true
		}, memmodel.EnumUniprocAdjacentRMW())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, v := range vs {
			wantKeys := slices.Sorted(maps.Keys(want[i]))
			if got := v.Outcomes.Keys(); v.Valid != valid[i] || !slices.Equal(got, wantKeys) {
				t.Errorf("%s under %s: the verdict counts %d valid executions with outcomes %q; DeriveAto gives %d and %q",
					p.Name, v.Type, v.Valid, got, valid[i], wantKeys)
			}
			outcomes += len(wantKeys)
		}
		for _, cs := range classes {
			if len(cs) > 1 {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no outcome is reached by candidates of different classes")
	}
	t.Logf("%d outcomes agree; %d are reached by candidates of different classes", outcomes, mixed)
}
