package sim

import (
	"testing"

	"repro/internal/core"
)

// naiveConfig is testConfig with the bloom-filter deadlock avoidance
// disabled, under the given RMW type.
func naiveConfig(typ core.AtomicityType) Config {
	cfg := testConfig().WithRMWType(typ)
	cfg.DisableDeadlockAvoidance = true
	return cfg
}

// TestNaiveWeakRMWRelocksOwnLine covers a core whose weak RMW locks a
// line it already holds: without deadlock avoidance a type-2/3 RMW
// retires before its write half drains, so the core's next RMW of the
// same line locks it a second time. Each lock must be released by its
// own write half; freeing the line on the first release used to make
// the second release panic.
func TestNaiveWeakRMWRelocksOwnLine(t *testing.T) {
	const line = 0x10000
	same := NewTrace("rmw-rmw", 1)
	same.Append(0, RMW(line), RMW(line))
	contended := NewTrace("read-vs-rmw-rmw", 2)
	contended.Append(0, Read(line))
	contended.Append(1, RMW(line), RMW(line))

	for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
		for _, tr := range []*Trace{same, contended} {
			res := runTrace(t, naiveConfig(typ), tr)
			if res.Deadlocked {
				t.Errorf("%s/%s: deadlocked", tr.Name, typ)
			}
			var completed uint64
			for _, c := range res.PerCore {
				completed += c.RMWsCompleted
			}
			if completed != 2 {
				t.Errorf("%s/%s: %d RMWs completed, want 2", tr.Name, typ, completed)
			}
		}
	}
}
