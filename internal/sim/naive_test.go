package sim

import (
	"fmt"
	"math/rand"
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

// randomTrace builds a small trace over at most three lines: two to four
// cores with up to eight operations each, drawn from every op kind.
func randomTrace(rng *rand.Rand, i int) *Trace {
	lines := []uint64{0x10000, 0x20000, 0x30000}[:1+rng.Intn(3)]
	tr := NewTrace(fmt.Sprintf("random-%d", i), 2+rng.Intn(3))
	for c := 0; c < len(tr.PerCore); c++ {
		for n := rng.Intn(9); n > 0; n-- {
			addr := lines[rng.Intn(len(lines))]
			switch rng.Intn(5) {
			case 0:
				tr.Append(c, Read(addr))
			case 1:
				tr.Append(c, Write(addr))
			case 2:
				tr.Append(c, RMW(addr))
			case 3:
				tr.Append(c, Fence())
			default:
				tr.Append(c, Compute(uint64(1+rng.Intn(200))))
			}
		}
	}
	return tr
}

// TestRandomTracesNeverPanic runs 1,500 seeded random traces (about a
// second) under every RMW type, with deadlock avoidance on and off. A run
// may deadlock when avoidance is off, but RunSource must never panic or
// fail.
func TestRandomTracesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(20130601))
	for i := 0; i < 1500; i++ {
		tr := randomTrace(rng, i)
		for _, typ := range core.AllTypes() {
			for _, naive := range []bool{false, true} {
				cfg := testConfig().WithRMWType(typ)
				cfg.DisableDeadlockAvoidance = naive
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s under %s (naive %v) panicked: %v\ntrace: %v", tr.Name, typ, naive, r, tr.PerCore)
						}
					}()
					if _, err := mustSim(t, cfg).RunSource(tr.Source()); err != nil {
						t.Fatalf("%s under %s (naive %v): %v", tr.Name, typ, naive, err)
					}
				}()
			}
		}
	}
}
