package litmus

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestRunParallelBuildsOneSpace pins that a verdict builds its candidate
// space once. With workers 0 the candidate-count rule is decided on the
// space the verdict walks; every registry test is below
// memmodel.AutoEnumThreshold, so it walks sequentially and allocates what
// the workers-1 verdict allocates, up to a small constant.
func TestRunParallelBuildsOneSpace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random, so allocation counts are not repeatable")
	}
	ctx := context.Background()
	for _, test := range AllTests() {
		n, err := memmodel.CountCandidates(test.Program)
		if err != nil {
			t.Fatal(err)
		}
		if n >= memmodel.AutoEnumThreshold {
			t.Fatalf("%s: %d candidates, at or above the fan-out threshold", test.Name, n)
		}
		allocs := func(workers int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := test.RunParallel(ctx, core.Type2, workers); err != nil {
					t.Error(err)
				}
			})
		}
		seq, auto := allocs(1), allocs(0)
		if auto > seq+2 {
			t.Errorf("%s: RunParallel with workers 0 allocates %.0f times, with workers 1 %.0f; want at most 2 more",
				test.Name, auto, seq)
		}
	}
}
