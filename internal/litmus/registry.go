package litmus

import (
	"fmt"
	"path"
)

// Suite groups: the paper's figures vs the classic TSO sanity tests.
const (
	// GroupPaper tags the tests taken directly from the paper's figures.
	GroupPaper = "paper"
	// GroupClassic tags the RMW-free TSO sanity tests and common RMW idioms.
	GroupClassic = "classic"
)

// suite is the built-in litmus suite in order: the paper's figures in
// figure order, then the classic TSO sanity tests and RMW idioms. Each
// constructor builds a fresh Test, so callers may mutate what they get.
// Lookups go by the built test's Name or Program.Name, which
// TestFindTest holds unique across the table.
var suite = []struct {
	group string
	build func() *Test
}{
	{GroupPaper, DekkerWriteReplacement},
	{GroupPaper, DekkerReadReplacement},
	{GroupPaper, DekkerRMWBarrierDifferentAddr},
	{GroupPaper, DekkerRMWBarrierSameAddr},
	{GroupPaper, WriteDeadlock},

	{GroupClassic, StoreBuffering},
	{GroupClassic, StoreBufferingFences},
	{GroupClassic, MessagePassing},
	{GroupClassic, LoadBuffering},
	{GroupClassic, CoRR},
	{GroupClassic, TASLock},
	{GroupClassic, FetchAddCounter},
	{GroupClassic, SpinlockHandoff},
}

// ByGroup constructs every suite test of the group, in suite order.
func ByGroup(group string) []*Test {
	var out []*Test
	for _, e := range suite {
		if e.group == group {
			out = append(out, e.build())
		}
	}
	return out
}

// AllTests constructs the full suite in order: paper figures first, then
// classic tests.
func AllTests() []*Test {
	out := make([]*Test, len(suite))
	for i, e := range suite {
		out[i] = e.build()
	}
	return out
}

// FindTest returns a fresh instance of the suite test whose name or
// program name is name, or nil.
func FindTest(name string) *Test {
	for _, e := range suite {
		if t := e.build(); t.Name == name || t.Program.Name == name {
			return t
		}
	}
	return nil
}

// Filter returns the tests whose name or program name matches the glob
// pattern (path.Match syntax, e.g. "SB*" or "dekker-*"), in order; the
// tests need not be in the suite. An empty pattern matches everything.
// Filter returns an error only for malformed patterns.
func Filter(tests []*Test, pattern string) ([]*Test, error) {
	if pattern == "" {
		return tests, nil
	}
	if _, err := path.Match(pattern, ""); err != nil {
		return nil, fmt.Errorf("litmus: bad filter pattern %q: %w", pattern, err)
	}
	var out []*Test
	for _, t := range tests {
		okName, _ := path.Match(pattern, t.Name)
		okProg, _ := path.Match(pattern, t.Program.Name)
		if okName || okProg {
			out = append(out, t)
		}
	}
	return out, nil
}
