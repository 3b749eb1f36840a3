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
	return litmusUnitID(testDigest(t), t, typ)
}

// testDigest returns the hex SHA-256 of the test's canonical rendering,
// the part of its unit IDs that does not depend on the type.
func testDigest(t *Test) string {
	sum := sha256.Sum256([]byte(litmus.Format(t)))
	return hex.EncodeToString(sum[:])
}

// litmusUnitID is LitmusUnitID with the test's digest already taken, so
// a grid renders and hashes each test once, not once per type.
func litmusUnitID(digest string, t *Test, typ AtomicityType) UnitID {
	k := CacheKey{
		Kind:         litmusVerdictKind,
		ConfigDigest: digest,
		Trace:        t.Name,
		RMWType:      typ,
	}
	return UnitID(k.UnitID())
}

// checkTestsSharded executes the verdict units of a litmus job the shard
// selects, so one suite splits across processes exactly like a
// simulation plan: the (test, type) grid is enumerated in deterministic
// order, each unit's stable ID is LitmusUnitID, and the round-robin
// selector keeps a deterministic subset. The returned slice holds only
// the selected units, still in (test, type) order, and every result
// carries its unit ID for correlation.
//
// A test's selected units run as one item of the worker pool: one walk
// of the test decides all their types (Test.Check), and then each unit
// is counted and streamed as its own verdict.
func (e *Engine) checkTestsSharded(ctx context.Context, shard Shard, m *metrics, tests ...*Test) ([]TestResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	types := e.opts.types
	// group is one test's selected units: their types and IDs, and the
	// position of the first in the results.
	type group struct {
		ti, first int
		types     []AtomicityType
		ids       []UnitID
	}
	var groups []group
	selected, pos := 0, 0
	for ti, t := range tests {
		digest := testDigest(t)
		g := group{ti: ti, first: selected}
		for _, typ := range types {
			id := litmusUnitID(digest, t, typ)
			if shard.Covers(pos, id) {
				g.types = append(g.types, typ)
				g.ids = append(g.ids, id)
			}
			pos++
		}
		if len(g.ids) > 0 {
			groups = append(groups, g)
			selected += len(g.ids)
		}
	}
	m.planned(selected)
	results := make([]TestResult, selected)
	err := e.runUnitsCtx(ctx, len(groups), func(i int) error {
		g := groups[i]
		rs, err := tests[g.ti].Check(ctx, g.types, e.opts.enumWorkers)
		if err != nil {
			return err
		}
		for j, res := range rs {
			res.Unit = string(g.ids[j])
			results[g.first+j] = res
			m.verdictDone()
			e.emitTo(m, Event{Litmus: &results[g.first+j]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ValidateMappings validates every Table 4 mapping under every configured
// RMW type for each program. Each (program, mapping, type) combination is
// one result and one event; the returned slice is ordered (program,
// mapping, type). A (program, mapping) pair runs as one item of the
// worker pool, deciding all the types in one walk of its compiled
// program. Each program's C/C++11 semantics is analyzed once, by the
// first of its items to run, and shared read-only by the rest.
func (e *Engine) ValidateMappings(programs ...*Cpp11Program) ([]MappingResult, error) {
	mappings := cpp11.AllMappings()
	types := e.opts.types
	type item struct{ pi, mi int }
	items := make([]item, 0, len(programs)*len(mappings))
	analyze := make([]func() (*cpp11.Semantics, error), len(programs))
	for pi, p := range programs {
		analyze[pi] = sync.OnceValues(func() (*cpp11.Semantics, error) { return cpp11.Analyze(p) })
		for mi := range mappings {
			items = append(items, item{pi, mi})
		}
	}
	results := make([]MappingResult, len(items)*len(types))
	err := e.runUnits(len(items), func(i int) error {
		it := items[i]
		sem, err := analyze[it.pi]()
		if err != nil {
			return err
		}
		rs, err := sem.Validate(e.opts.ctx, mappings[it.mi], types, e.opts.enumWorkers)
		if err != nil {
			return err
		}
		for j, res := range rs {
			k := i*len(types) + j
			results[k] = res
			e.emit(Event{Mapping: &results[k]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
