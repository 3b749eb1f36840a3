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

// AnalyzeCpp11 computes the exhaustive C/C++11 semantics of the program.
func AnalyzeCpp11(p *Cpp11Program) (*Cpp11Semantics, error) { return cpp11.Analyze(p) }

// CompileCpp11 translates a C/C++11 program to a TSO litmus program under
// the mapping.
func CompileCpp11(p *Cpp11Program, m Mapping) (*Program, error) { return cpp11.Compile(p, m) }

// ValidateMapping checks one (program, mapping, atomicity type)
// combination by exhaustive comparison of the two models' outcome sets.
// For whole suites, prefer Runner.ValidateMappings, which fans the
// combinations across the worker pool.
func ValidateMapping(p *Cpp11Program, m Mapping, typ AtomicityType) (MappingResult, error) {
	return cpp11.ValidateMapping(p, m, typ)
}

// FindCpp11Program returns a fresh instance of the built-in C/C++11
// program with the given name, or nil.
func FindCpp11Program(name string) *Cpp11Program { return cpp11.BuildProgram(name) }

// Cpp11SuiteView is a selection of built-in C/C++11 programs.
type Cpp11SuiteView struct {
	progs []*Cpp11Program
}

// Cpp11ValidationSuite returns a view over the race-free programs used to
// validate the Table 4 mappings.
func Cpp11ValidationSuite() *Cpp11SuiteView {
	return &Cpp11SuiteView{progs: cpp11.ValidationPrograms()}
}

// Programs returns the programs in the view, in order.
func (v *Cpp11SuiteView) Programs() []*Cpp11Program { return append([]*Cpp11Program(nil), v.progs...) }
