package cpp11

import (
	"fmt"
	"path"
	"sync"
)

// Program groups: the race-free validation set used by Table 4 vs the
// additional illustrative idioms.
const (
	// GroupValidation tags the race-free programs that validate the Table 4
	// mappings.
	GroupValidation = "validation"
	// GroupIdiom tags the remaining example idioms (racy variants, IRIW).
	GroupIdiom = "idiom"
)

// progEntry is one registered program constructor.
type progEntry struct {
	name  string
	group string
	build func() *Program
}

// programs is the process-wide, name-keyed C/C++11 program registry,
// mirroring the litmus test registry: new validation programs are
// registered, not wired into suite constructors.
var programs = struct {
	mu     sync.RWMutex
	byName map[string]*progEntry
	order  []*progEntry
}{byName: map[string]*progEntry{}}

// RegisterProgram adds a named program constructor under a group. The
// constructor runs once per lookup so callers receive fresh programs.
// Duplicate names panic.
func RegisterProgram(group, name string, build func() *Program) {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	if _, dup := programs.byName[name]; dup {
		panic(fmt.Sprintf("cpp11: duplicate program registration %q", name))
	}
	e := &progEntry{name: name, group: group, build: build}
	programs.byName[name] = e
	programs.order = append(programs.order, e)
}

// BuildProgram constructs a fresh instance of the named program, or nil
// when the name is not registered.
func BuildProgram(name string) *Program {
	programs.mu.RLock()
	e := programs.byName[name]
	programs.mu.RUnlock()
	if e == nil {
		return nil
	}
	return e.build()
}

// ProgramsByGroup constructs every program registered under the group, in
// registration order.
func ProgramsByGroup(group string) []*Program {
	programs.mu.RLock()
	defer programs.mu.RUnlock()
	var out []*Program
	for _, e := range programs.order {
		if e.group == group {
			out = append(out, e.build())
		}
	}
	return out
}

// AllPrograms constructs every registered program, in registration
// order.
func AllPrograms() []*Program {
	programs.mu.RLock()
	defer programs.mu.RUnlock()
	out := make([]*Program, len(programs.order))
	for i, e := range programs.order {
		out[i] = e.build()
	}
	return out
}

// FilterPrograms returns the programs whose name matches the glob pattern
// (path.Match syntax), in order; the programs need not be registered. An
// empty pattern matches everything. FilterPrograms returns an error only
// for malformed patterns.
func FilterPrograms(progs []*Program, pattern string) ([]*Program, error) {
	if pattern == "" {
		return progs, nil
	}
	if _, err := path.Match(pattern, ""); err != nil {
		return nil, fmt.Errorf("cpp11: bad filter pattern %q: %w", pattern, err)
	}
	var out []*Program
	for _, p := range progs {
		if ok, _ := path.Match(pattern, p.Name); ok {
			out = append(out, p)
		}
	}
	return out, nil
}
