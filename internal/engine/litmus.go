package engine

import (
	"context"
	"sync"

	"repro/internal/cpp11"
)

// checkTests model-checks every test of a litmus job under every
// configured type and returns the verdicts in (test, type) order. Each
// test is one item of the worker pool: one walk decides all its types
// (Test.Check), and then each verdict is counted and streamed on its own.
func (e *Engine) checkTests(ctx context.Context, m *metrics, tests []*Test) ([]TestResult, error) {
	types := e.opts.types
	m.planned(len(tests) * len(types))
	results := make([]TestResult, len(tests)*len(types))
	err := e.runUnitsCtx(ctx, len(tests), func(i int) error {
		rs, err := tests[i].Check(ctx, types, e.opts.enumWorkers)
		if err != nil {
			return err
		}
		first := i * len(types)
		copy(results[first:], rs)
		for j := range rs {
			m.verdictDone()
			m.emit(Event{Litmus: &results[first+j]})
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
// one result; the returned slice is ordered (program, mapping, type). A
// (program, mapping) pair runs as one item of the worker pool, deciding
// all the types in one walk of its compiled program. Each program's
// C/C++11 semantics is analyzed once, by the first of its items to run,
// and shared read-only by the rest.
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
		copy(results[i*len(types):], rs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
