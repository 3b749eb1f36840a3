package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/cpp11"
	"repro/internal/litmus"
)

// litmusVerdictKind is the kind of the content key a litmus unit ID is
// derived from. Verdicts are cheap to recompute and never cached; the key
// only names the unit.
const litmusVerdictKind = "litmus-verdict"

// LitmusUnitID returns the stable work-unit ID of one (test, type)
// verdict: the UnitID of a content key over the digest of the test's
// canonical textual rendering (program, condition and expectations) and
// the atomicity type checked.
func LitmusUnitID(t *Test, typ AtomicityType) UnitID {
	sum := sha256.Sum256([]byte(litmus.Format(t)))
	k := CacheKey{
		Kind:         litmusVerdictKind,
		ConfigDigest: hex.EncodeToString(sum[:]),
		Trace:        t.Name,
		RMWType:      typ,
	}
	return UnitID(k.UnitID())
}

// checkTestsSharded executes the verdict units of a litmus job the shard
// selects, so a fleet can split one suite across processes exactly like a
// simulation plan: the (test, type) grid is enumerated in deterministic
// order, each unit's stable ID is LitmusUnitID, and the round-robin
// selector (or unit-ID predicate) keeps a deterministic subset. The
// returned slice holds only the selected units, still in (test, type)
// order, and every result carries its unit ID for correlation.
func (e *Engine) checkTestsSharded(ctx context.Context, shard Shard, m *metrics, tests ...*Test) ([]TestResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	types := e.opts.types
	type unit struct {
		ti, yi int
		id     UnitID
	}
	units := make([]unit, 0, len(tests)*len(types))
	pos := 0
	for ti := range tests {
		for yi := range types {
			id := LitmusUnitID(tests[ti], types[yi])
			if shard.Covers(pos, id) {
				units = append(units, unit{ti, yi, id})
			}
			pos++
		}
	}
	m.planned(len(units))
	results := make([]TestResult, len(units))
	err := e.runUnitsCtx(ctx, len(units), func(i int) error {
		u := units[i]
		res, err := tests[u.ti].RunParallel(ctx, types[u.yi], e.opts.enumWorkers)
		if err != nil {
			return err
		}
		res.Unit = string(u.id)
		results[i] = res
		m.verdictDone()
		e.emitTo(m, Event{Litmus: &results[i]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ValidateMappings validates every Table 4 mapping under every configured
// RMW type for each program. Each (program, mapping, type) combination is
// one work unit; the returned slice is ordered (program, mapping, type).
// Each program's C/C++11 semantics is analyzed once, by the first of its
// units to run, and shared read-only by the rest.
func (e *Engine) ValidateMappings(programs ...*Cpp11Program) ([]MappingResult, error) {
	mappings := cpp11.AllMappings()
	types := e.opts.types
	type unit struct{ pi, mi, yi int }
	units := make([]unit, 0, len(programs)*len(mappings)*len(types))
	analyze := make([]func() (*cpp11.Semantics, error), len(programs))
	for pi, p := range programs {
		analyze[pi] = sync.OnceValues(func() (*cpp11.Semantics, error) { return cpp11.Analyze(p) })
		for mi := range mappings {
			for yi := range types {
				units = append(units, unit{pi, mi, yi})
			}
		}
	}
	results := make([]MappingResult, len(units))
	err := e.runUnits(len(units), func(i int) error {
		u := units[i]
		sem, err := analyze[u.pi]()
		if err != nil {
			return err
		}
		res, err := sem.Validate(e.opts.ctx, mappings[u.mi], types[u.yi], e.opts.enumWorkers)
		if err != nil {
			return err
		}
		results[i] = res
		e.emit(Event{Mapping: &results[i]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
