package cpp11

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// Mapping is one of the paper's Table 4 compilation schemes from C/C++11
// accesses to x86-TSO instruction sequences. Non-SC accesses always compile
// to plain loads and stores; the mappings differ in whether SC loads and/or
// SC stores become locked RMW instructions.
type Mapping int

const (
	// ReadWriteMapping compiles SC loads to "lock xadd(0)" and SC stores to
	// "lock xchg" (Table 4(a), from Terekhov's prototype).
	ReadWriteMapping Mapping = iota
	// ReadMapping compiles only SC loads to "lock xadd(0)"; SC stores stay
	// plain stores (Table 4(b)).
	ReadMapping
	// WriteMapping compiles only SC stores to "lock xchg"; SC loads stay
	// plain loads (Table 4(c)).
	WriteMapping
)

// String returns the paper's name for the mapping.
func (m Mapping) String() string {
	switch m {
	case ReadWriteMapping:
		return "read-write-mapping"
	case ReadMapping:
		return "read-mapping"
	case WriteMapping:
		return "write-mapping"
	default:
		return fmt.Sprintf("Mapping(%d)", int(m))
	}
}

// AllMappings lists the Table 4 mappings in table order.
func AllMappings() []Mapping { return []Mapping{ReadWriteMapping, ReadMapping, WriteMapping} }

// MapsSCLoadToRMW reports whether the mapping compiles SC loads to RMWs.
func (m Mapping) MapsSCLoadToRMW() bool { return m == ReadWriteMapping || m == ReadMapping }

// MapsSCStoreToRMW reports whether the mapping compiles SC stores to RMWs.
func (m Mapping) MapsSCStoreToRMW() bool { return m == ReadWriteMapping || m == WriteMapping }

// Compile translates a C/C++11 program to a TSO litmus program under the
// mapping. SC loads compiled to RMWs become fetch-and-add of zero (the
// value read is observable in the original register); SC stores compiled to
// RMWs become exchanges whose read half lands in a hidden register named
// "_scw<i>". Hidden registers are excluded when projecting TSO outcomes
// back onto the C/C++11 program (see ProjectOutcome).
func Compile(p *Program, m Mapping) (*memmodel.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return translate(p, fmt.Sprintf("%s[%s]", p.Name, m), m.MapsSCLoadToRMW(), m.MapsSCStoreToRMW()), nil
}

// translate is Compile's instruction selection: SC loads become RMWs when
// scLoadRMW is set and SC stores when scStoreRMW is set; every other access
// is a plain TSO read or write. Analyze translates with neither set, so its
// candidates have exactly one event per statement.
func translate(p *Program, name string, scLoadRMW, scStoreRMW bool) *memmodel.Program {
	out := memmodel.NewProgram(name)
	for addr, v := range p.Init {
		out.SetInit(addr, v)
	}
	aux := 0
	for _, t := range p.Threads {
		var instrs []memmodel.Instr
		for _, s := range t {
			switch {
			case s.Kind == OpLoad && s.Order == OrderSC && scLoadRMW:
				instrs = append(instrs, memmodel.FetchAdd(s.Addr, s.Reg, 0))
			case s.Kind == OpLoad:
				instrs = append(instrs, memmodel.Read(s.Addr, s.Reg))
			case s.Kind == OpStore && s.Order == OrderSC && scStoreRMW:
				reg := fmt.Sprintf("_scw%d", aux)
				aux++
				instrs = append(instrs, memmodel.Exchange(s.Addr, reg, s.Value))
			default:
				instrs = append(instrs, memmodel.Write(s.Addr, s.Value))
			}
		}
		out.AddThread(instrs...)
	}
	return out
}

// ProjectOutcome restricts a TSO outcome's registers to the registers that
// exist in the source C/C++11 program, dropping the hidden "_scw" registers
// introduced by compiled SC stores.
func ProjectOutcome(o core.Outcome) map[string]memmodel.Value {
	out := map[string]memmodel.Value{}
	for k, v := range o.Registers {
		if strings.Contains(k, ":_scw") {
			continue
		}
		out[k] = v
	}
	return out
}

// ValidationResult reports whether a mapping is a correct compilation
// scheme for a program under a given RMW atomicity type: every outcome the
// TSO model allows for the compiled program must be a consistent C/C++11
// outcome of the source program (unless the source program is racy, in
// which case any behaviour is permitted).
type ValidationResult struct {
	Program   string
	Mapping   Mapping
	Atomicity core.AtomicityType
	// Racy is true when the source program has a data race (undefined
	// behaviour): the mapping is then vacuously sound for it.
	Racy bool
	// Sound is true when TSO outcomes ⊆ C/C++11 outcomes (or Racy).
	Sound bool
	// Counterexamples lists TSO-allowed outcomes that the C/C++11 model
	// forbids, by canonical register key.
	Counterexamples []string
	// CPPOutcomes and TSOOutcomes are the outcome keys of the two models,
	// for reporting.
	CPPOutcomes []string
	TSOOutcomes []string
}

// String renders the validation result as a one-line summary.
func (r ValidationResult) String() string {
	verdict := "SOUND"
	if !r.Sound {
		verdict = "UNSOUND"
	}
	if r.Racy {
		verdict += " (racy source)"
	}
	s := fmt.Sprintf("%-24s %-20s %-7s %s", r.Program, r.Mapping, r.Atomicity, verdict)
	if len(r.Counterexamples) > 0 {
		s += fmt.Sprintf("  counterexample: %s", r.Counterexamples[0])
	}
	return s
}

// ValidateMapping checks the mapping against the program for one RMW
// atomicity type by exhaustive comparison of the two models' outcome sets.
// It analyzes the program on every call; a batch that validates several
// mappings or types of one program analyzes it once and calls Validate.
func ValidateMapping(p *Program, m Mapping, typ core.AtomicityType) (ValidationResult, error) {
	sem, err := Analyze(p)
	if err != nil {
		return ValidationResult{Program: p.Name, Mapping: m, Atomicity: typ}, err
	}
	res, err := sem.Validate(context.Background(), m, []core.AtomicityType{typ}, 1)
	if err != nil {
		return ValidationResult{Program: p.Name, Mapping: m, Atomicity: typ}, err
	}
	return res[0], nil
}

// Validate checks the mapping against the analyzed program under each of
// the given RMW atomicity types, returning one result per type in the
// given order. It compiles the program once and decides every type in one
// walk of the compiled program (core.Verdicts). That walk — the dominant
// cost, since compiling SC accesses to RMWs multiplies the rf×ws choice
// space — is spread over workers goroutines, as memmodel.EnumWorkers
// defines them: workers == 1 is sequential, workers > 1 parallelizes, and
// workers <= 0 applies the candidate-count rule to the compiled program's
// candidates that satisfy uniproc, the only ones the TSO side walks
// (GOMAXPROCS for IRIW-class spaces, 1 for small ones). Each result is
// identical to ValidateMapping's; a cancelled ctx aborts with ctx's
// error. Validate only reads s, so one Semantics serves any number of
// concurrent calls.
func (s *Semantics) Validate(ctx context.Context, m Mapping, types []core.AtomicityType, workers int) ([]ValidationResult, error) {
	p := s.p
	if p == nil {
		return nil, errors.New("cpp11: Validate needs a Semantics built by Analyze")
	}
	compiled, err := Compile(p, m)
	if err != nil {
		return nil, err
	}
	vs, err := core.Verdicts(ctx, compiled, types, workers)
	if err != nil {
		return nil, err
	}
	out := make([]ValidationResult, len(vs))
	for i, v := range vs {
		out[i] = s.result(m, v)
	}
	return out, nil
}

// result compares one type's TSO outcomes of the compiled program with
// the program's C/C++11 outcomes.
func (s *Semantics) result(m Mapping, v core.Verdict) ValidationResult {
	res := ValidationResult{Program: s.p.Name, Mapping: m, Atomicity: v.Type, Racy: s.Racy}
	res.CPPOutcomes = s.OutcomeKeys()
	tsoKeys := map[string]bool{}
	for _, o := range v.Outcomes.Outcomes() {
		tsoKeys[RegisterKey(ProjectOutcome(o))] = true
	}
	for k := range tsoKeys {
		res.TSOOutcomes = append(res.TSOOutcomes, k)
	}
	sort.Strings(res.TSOOutcomes)

	res.Sound = true
	if !res.Racy {
		for _, k := range res.TSOOutcomes {
			if !s.AllowsOutcome(k) {
				res.Sound = false
				res.Counterexamples = append(res.Counterexamples, k)
			}
		}
	}
	return res
}
