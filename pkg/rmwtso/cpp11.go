package rmwtso

import "repro/internal/cpp11"

// Cpp11Program is a small C/C++11 program over atomic and non-atomic
// locations, the source language of the paper's Table 4 compilation
// schemes.
type Cpp11Program = cpp11.Program

// Cpp11Stmt is one statement of a C/C++11 program.
type Cpp11Stmt = cpp11.Stmt

// Cpp11Semantics is the exhaustive C/C++11 semantics of a program: its
// consistent executions, raciness and allowed outcomes.
type Cpp11Semantics = cpp11.Semantics

// Mapping is one of the paper's Table 4 compilation schemes from C/C++11
// accesses to x86-TSO instruction sequences.
type Mapping = cpp11.Mapping

// The Table 4 mappings: which SC accesses compile to locked RMWs.
const (
	ReadWriteMapping = cpp11.ReadWriteMapping
	ReadMapping      = cpp11.ReadMapping
	WriteMapping     = cpp11.WriteMapping
)

// MappingResult reports whether one mapping is a sound compilation scheme
// for one program under one RMW atomicity type.
type MappingResult = cpp11.ValidationResult

// AllMappings lists the Table 4 mappings in table order.
func AllMappings() []Mapping { return cpp11.AllMappings() }

// ParseMapping parses a mapping name ("read-write", "read", "write").
func ParseMapping(s string) (Mapping, error) { return cpp11.ParseMapping(s) }

// NewCpp11Program returns an empty C/C++11 program with the given name.
func NewCpp11Program(name string) *Cpp11Program { return cpp11.NewProgram(name) }

// Load builds a non-atomic load into a register.
func Load(addr Addr, reg string) Cpp11Stmt { return cpp11.Load(addr, reg) }

// Store builds a non-atomic store.
func Store(addr Addr, v Value) Cpp11Stmt { return cpp11.Store(addr, v) }

// SCLoad builds a sequentially-consistent atomic load.
func SCLoad(addr Addr, reg string) Cpp11Stmt { return cpp11.SCLoad(addr, reg) }

// SCStore builds a sequentially-consistent atomic store.
func SCStore(addr Addr, v Value) Cpp11Stmt { return cpp11.SCStore(addr, v) }

// AnalyzeCpp11 computes the exhaustive C/C++11 semantics of the program.
func AnalyzeCpp11(p *Cpp11Program) (*Cpp11Semantics, error) { return cpp11.Analyze(p) }

// CompileCpp11 translates a C/C++11 program to a TSO litmus program under
// the mapping.
func CompileCpp11(p *Cpp11Program, m Mapping) (*Program, error) { return cpp11.Compile(p, m) }

// ValidateMapping checks one (program, mapping, atomicity type)
// combination by exhaustive comparison of the two models' outcome sets.
// For whole suites, prefer Cpp11Suite().Validate or
// Runner.ValidateMappings, which fan the combinations across the worker
// pool.
func ValidateMapping(p *Cpp11Program, m Mapping, typ AtomicityType) (MappingResult, error) {
	return cpp11.ValidateMapping(p, m, typ)
}

// C/C++11 program groups understood by the registry.
const (
	// GroupValidation tags the race-free programs that validate the
	// Table 4 mappings.
	GroupValidation = cpp11.GroupValidation
	// GroupIdiom tags the remaining example idioms.
	GroupIdiom = cpp11.GroupIdiom
)

// RegisterCpp11Program adds a named C/C++11 program constructor to the
// registry under a group. Duplicate names panic.
func RegisterCpp11Program(group, name string, build func() *Cpp11Program) {
	cpp11.RegisterProgram(group, name, build)
}

// FindCpp11Program returns a fresh instance of the registered program
// with the given name, or nil.
func FindCpp11Program(name string) *Cpp11Program { return cpp11.BuildProgram(name) }

// Cpp11SuiteView is a filterable selection of registered C/C++11
// programs, mirroring SuiteView.
type Cpp11SuiteView struct {
	progs []*Cpp11Program
	err   error
}

// Cpp11Suite returns a view over every registered C/C++11 program, in
// registration order (the validation set first).
func Cpp11Suite() *Cpp11SuiteView { return &Cpp11SuiteView{progs: cpp11.AllPrograms()} }

// Cpp11ValidationSuite returns a view over the race-free programs used to
// validate the Table 4 mappings.
func Cpp11ValidationSuite() *Cpp11SuiteView {
	return &Cpp11SuiteView{progs: cpp11.ProgramsByGroup(cpp11.GroupValidation)}
}

// Filter narrows the view to its programs whose name matches the glob
// pattern, whether or not they are registered. A malformed pattern
// poisons the view; the error is returned by Validate.
func (v *Cpp11SuiteView) Filter(pattern string) *Cpp11SuiteView {
	if v.err != nil {
		return v
	}
	progs, err := cpp11.FilterPrograms(v.progs, pattern)
	return &Cpp11SuiteView{progs: progs, err: err}
}

// Names returns the names of the programs in the view, in order.
func (v *Cpp11SuiteView) Names() []string {
	out := make([]string, len(v.progs))
	for i, p := range v.progs {
		out[i] = p.Name
	}
	return out
}

// Programs returns the programs in the view, in order.
func (v *Cpp11SuiteView) Programs() []*Cpp11Program { return append([]*Cpp11Program(nil), v.progs...) }

// Err returns the sticky filter error, if any.
func (v *Cpp11SuiteView) Err() error { return v.err }

// Validate checks every (program, mapping, atomicity type) combination of
// the view with a Runner built from the options, streaming each
// validation to the observer as it completes. Results come back in
// deterministic (program, mapping, type) order.
func (v *Cpp11SuiteView) Validate(opts ...Option) ([]MappingResult, error) {
	if v.err != nil {
		return nil, v.err
	}
	return NewRunner(opts...).ValidateMappings(v.progs...)
}
