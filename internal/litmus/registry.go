package litmus

import (
	"fmt"
	"path"
	"sync"
)

// Suite groups registered tests: the paper's figures vs the classic TSO
// sanity tests.
const (
	// GroupPaper tags the tests taken directly from the paper's figures.
	GroupPaper = "paper"
	// GroupClassic tags the RMW-free TSO sanity tests and common RMW idioms.
	GroupClassic = "classic"
)

// entry is one registered test constructor.
type entry struct {
	name  string
	group string
	build func() *Test
}

// registry is the process-wide, name-keyed test registry. Tests are
// registered, not wired: new scenarios call Register (typically from an
// init function) and every consumer — the suite views of pkg/rmwtso, the
// litmus command, the experiment harness — sees them without code changes.
var registry = struct {
	mu     sync.RWMutex
	byName map[string]*entry
	order  []*entry
}{byName: map[string]*entry{}}

// Register adds a named test constructor to the registry under a group.
// The constructor is invoked once per lookup so callers always receive a
// fresh Test they may mutate. Registering a duplicate name panics: names
// are the registry's identity.
func Register(group, name string, build func() *Test) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("litmus: duplicate test registration %q", name))
	}
	e := &entry{name: name, group: group, build: build}
	registry.byName[name] = e
	registry.order = append(registry.order, e)
}

// Names returns the registered test names in registration order.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, len(registry.order))
	for i, e := range registry.order {
		out[i] = e.name
	}
	return out
}

// Build constructs a fresh instance of the named test, or nil when the
// name is not registered.
func Build(name string) *Test {
	registry.mu.RLock()
	e := registry.byName[name]
	registry.mu.RUnlock()
	if e == nil {
		return nil
	}
	return e.build()
}

// ByGroup constructs every test registered under the group, in
// registration order.
func ByGroup(group string) []*Test {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	var out []*Test
	for _, e := range registry.order {
		if e.group == group {
			out = append(out, e.build())
		}
	}
	return out
}

// Filter returns the tests whose name or program name matches the glob
// pattern (path.Match syntax, e.g. "SB*" or "dekker-*"), in order; the
// tests need not be registered. An empty pattern matches everything.
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
