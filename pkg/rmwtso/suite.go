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

// FindTest returns a fresh instance of the suite test with the given
// name or program name, or nil.
func FindTest(name string) *Test { return litmus.FindTest(name) }

// ParseTest parses a litmus test from its textual format.
func ParseTest(src string) (*Test, error) { return litmus.Parse(src) }

// FormatTest renders a test in the litmus textual format.
func FormatTest(t *Test) string { return litmus.Format(t) }

// RenderLitmusResults renders litmus results as a fixed-width table
// sorted by test name then atomicity type.
func RenderLitmusResults(results []TestResult) string { return litmus.Report(results) }

// SuiteView is a filterable selection of litmus tests. Views are built
// by Suite, PaperSuite or TestsOf, narrowed with Filter, and executed
// with Run. A filter error is sticky: it surfaces when the view is run.
type SuiteView struct {
	tests []*Test
	err   error
}

// Suite returns a view over every built-in litmus test, in suite order
// (paper figures first, then classics).
func Suite() *SuiteView { return &SuiteView{tests: litmus.AllTests()} }

// PaperSuite returns a view over the tests taken directly from the
// paper's figures, in figure order.
func PaperSuite() *SuiteView { return &SuiteView{tests: litmus.ByGroup(litmus.GroupPaper)} }

// TestsOf builds an ad-hoc view over explicit tests (for example one
// parsed from a file), so they run through the same Runner machinery as
// the built-in suite.
func TestsOf(tests ...*Test) *SuiteView { return &SuiteView{tests: tests} }

// Filter narrows the view to its tests whose name or program name matches
// the glob pattern (path.Match syntax, e.g. "SB*" or "dekker-*"), whether
// or not they are built in. A malformed pattern poisons the view; the
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

// Run model-checks every test in the view under every configured
// atomicity type with a Runner built from the options: each test is one
// item of the pool, whose one walk decides all its types. Results come
// back in deterministic (test, type) order regardless of parallelism.
func (v *SuiteView) Run(opts ...Option) ([]TestResult, error) {
	if v.err != nil {
		return nil, v.err
	}
	return NewRunner(opts...).CheckTests(v.tests...)
}
