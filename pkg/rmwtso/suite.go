package rmwtso

import "repro/internal/litmus"

// Test is a litmus test: a program, a condition over its final state, and
// the expected verdict per atomicity type.
type Test = litmus.Test

// TestResult is the verdict of running one litmus test under one
// atomicity type.
type TestResult = litmus.Result

// Condition is a quantified condition over final program state, in
// herd/litmus style.
type Condition = litmus.Condition

// Term is one equality constraint of a condition.
type Term = litmus.Term

// RegTerm builds a register term ("P<tid>:<reg> = value").
func RegTerm(thread ThreadID, reg string, v Value) Term { return litmus.RegTerm(thread, reg, v) }

// MemTerm builds a final-memory term ("<location> = value").
func MemTerm(addr Addr, v Value) Term { return litmus.MemTerm(addr, v) }

// ExistsCond builds an existential condition over the terms.
func ExistsCond(terms ...Term) Condition { return litmus.ExistsCond(terms...) }

// NotExistsCond builds a negative existential condition over the terms.
func NotExistsCond(terms ...Term) Condition { return litmus.NotExistsCond(terms...) }

// ForallCond builds a universal condition over the terms.
func ForallCond(terms ...Term) Condition { return litmus.ForallCond(terms...) }

// Suite groups understood by the litmus registry.
const (
	// GroupPaper tags the tests taken directly from the paper's figures.
	GroupPaper = litmus.GroupPaper
	// GroupClassic tags the RMW-free TSO sanity tests and common RMW
	// idioms.
	GroupClassic = litmus.GroupClassic
)

// RegisterTest adds a named litmus test constructor to the registry under
// a group. Registered tests appear in Suite views and in the litmus
// command without further wiring. Duplicate names panic.
func RegisterTest(group, name string, build func() *Test) { litmus.Register(group, name, build) }

// FindTest returns a fresh instance of the registered test with the given
// name (registry name or program name), or nil.
func FindTest(name string) *Test { return litmus.FindTest(name) }

// ParseTest parses a litmus test from its textual format.
func ParseTest(src string) (*Test, error) { return litmus.Parse(src) }

// FormatTest renders a test in the litmus textual format.
func FormatTest(t *Test) string { return litmus.Format(t) }

// RenderLitmusResults renders litmus results as a fixed-width table
// sorted by test name then atomicity type. (Renamed from Report, which
// now names the evaluation report model.)
func RenderLitmusResults(results []TestResult) string { return litmus.Report(results) }

// SuiteView is a filterable selection of registered litmus tests. Views
// are built by Suite, PaperSuite, ClassicSuite or TestsOf, narrowed with
// Filter, and executed with Run. A filter error is sticky: it surfaces
// when the view is run.
type SuiteView struct {
	tests []*Test
	err   error
}

// Suite returns a view over every registered litmus test, in registration
// order (paper figures first, then classics, then any tests registered by
// the embedding program).
func Suite() *SuiteView { return &SuiteView{tests: litmus.AllTests()} }

// PaperSuite returns a view over the tests taken directly from the
// paper's figures, in figure order.
func PaperSuite() *SuiteView { return &SuiteView{tests: litmus.ByGroup(litmus.GroupPaper)} }

// ClassicSuite returns a view over the classic TSO sanity tests and RMW
// idioms.
func ClassicSuite() *SuiteView { return &SuiteView{tests: litmus.ByGroup(litmus.GroupClassic)} }

// TestsOf builds an ad-hoc view over explicit tests (for example one
// parsed from a file), so they run through the same Runner machinery as
// registered tests.
func TestsOf(tests ...*Test) *SuiteView { return &SuiteView{tests: tests} }

// Filter narrows the view to its tests whose name or program name matches
// the glob pattern (path.Match syntax, e.g. "SB*" or "dekker-*"), whether
// or not they are registered. A malformed pattern poisons the view; the
// error is returned by Run.
func (v *SuiteView) Filter(pattern string) *SuiteView {
	if v.err != nil {
		return v
	}
	tests, err := litmus.Filter(v.tests, pattern)
	return &SuiteView{tests: tests, err: err}
}

// Names returns the names of the tests in the view, in order.
func (v *SuiteView) Names() []string {
	out := make([]string, len(v.tests))
	for i, t := range v.tests {
		out[i] = t.Name
	}
	return out
}

// Tests returns the tests in the view, in order.
func (v *SuiteView) Tests() []*Test { return append([]*Test(nil), v.tests...) }

// Len returns the number of tests in the view.
func (v *SuiteView) Len() int { return len(v.tests) }

// Err returns the sticky filter error, if any.
func (v *SuiteView) Err() error { return v.err }

// Run model-checks every test in the view with a Runner built from the
// options: each (test, atomicity type) verdict is one work unit on the
// pool, streamed to the observer as it completes. Results come back in
// deterministic (test, type) order regardless of parallelism.
func (v *SuiteView) Run(opts ...Option) ([]TestResult, error) {
	return v.RunShard(FullShard(), opts...)
}

// RunShard is Run restricted to the verdict units the shard selects, so
// a fleet can split one suite across processes: the (test, type) grid and
// its unit IDs are deterministic, and the round-robin selector keeps a
// disjoint, collectively exhaustive subset per process. Results carry
// their unit IDs for correlation.
func (v *SuiteView) RunShard(shard Shard, opts ...Option) ([]TestResult, error) {
	if v.err != nil {
		return nil, v.err
	}
	return NewRunner(opts...).CheckTestsSharded(shard, v.tests...)
}
