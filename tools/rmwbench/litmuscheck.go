package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/pkg/rmwtso"
)

// litmusInputs is litmus-check's input set.
type litmusInputs struct {
	registry  []*rmwtso.Test
	mappings  []*rmwtso.Cpp11Program
	iriw      *rmwtso.Cpp11Program
	generated []*rmwtso.Test
	// candidates holds CountCandidates of each generated program, which
	// its verdicts must report.
	candidates []int
}

// loadLitmusInputs generates n programs from seed and parses them, next
// to the registry, the C++11 validation suite and IRIW.
func loadLitmusInputs(seed int64, n int) (*litmusInputs, error) {
	srcs, err := generateLitmus(seed, n)
	if err != nil {
		return nil, err
	}
	in := &litmusInputs{
		registry: rmwtso.Suite().Tests(),
		mappings: rmwtso.Cpp11ValidationSuite().Programs(),
		iriw:     rmwtso.FindCpp11Program("sc-iriw"),
	}
	if in.iriw == nil {
		return nil, fmt.Errorf("no sc-iriw program in the C++11 registry")
	}
	for _, src := range srcs {
		t, err := rmwtso.ParseTest(src)
		if err != nil {
			return nil, err
		}
		c, err := rmwtso.CountCandidates(t.Program)
		if err != nil {
			return nil, err
		}
		in.generated = append(in.generated, t)
		in.candidates = append(in.candidates, c)
	}
	return in, nil
}

func verdictLine(r rmwtso.TestResult) string {
	return fmt.Sprintf("%s %s holds=%t valid=%d candidates=%d matches=%t",
		r.Test.Name, r.Atomicity, r.Holds, r.ValidExecutions, r.Candidates, r.Matches)
}

func mappingLine(r rmwtso.MappingResult) string {
	return fmt.Sprintf("%s %s %s racy=%t sound=%t", r.Program, r.Mapping, r.Atomicity, r.Racy, r.Sound)
}

func setupLitmusCheck(ctx context.Context, e *env) (*fixture, error) {
	in, err := loadLitmusInputs(e.seed, e.size.Programs)
	if err != nil {
		return nil, err
	}
	// A pass is one call per input; the passes' calls run in order,
	// split evenly over the pieces.
	calls := 3 + len(in.generated)
	total := e.size.Passes * calls
	var ref string // the first pass's verdict set
	var lines []string
	passOK := true
	m := func(ctx context.Context, tr *tracer, p int) (*outcome, error) {
		o := &outcome{}
		runner := rmwtso.NewRunner(rmwtso.WithContext(ctx), rmwtso.WithParallelism(e.size.Parallelism))
		for i := total * p / parts; i < total*(p+1)/parts && ctx.Err() == nil; i++ {
			pass, c := i/calls+1, i%calls
			got, ok := checkCall(runner, in, tr, int64(pass), c, o)
			lines = append(lines, got...)
			passOK = passOK && ok
			if c < calls-1 {
				continue
			}
			if passOK {
				set := strings.Join(lines, "\n") + "\n"
				if ref == "" {
					ref = set
					checkPinned(o, e, "verdict set", pinnedVerdictDigest, []byte(set))
				}
				o.check(set == ref, "pass %d: verdict set differs from the first pass's", pass)
			}
			lines, passOK = nil, true
		}
		return o, ctx.Err()
	}
	return &fixture{measure: m, close: func() {}}, nil
}

// checkCall makes call c of a pass: 0 checks the litmus registry, 1
// validates the C++11 mappings, 2 validates IRIW under the read-write
// mapping, and 3+i checks generated program i. Each call is one
// operation. It returns the call's verdict lines, and false when the call
// failed.
func checkCall(runner *rmwtso.Runner, in *litmusInputs, tr *tracer, req int64, c int, o *outcome) ([]string, bool) {
	var lines []string
	t0 := time.Now()
	switch c {
	case 0:
		sp := tr.start("litmus.registry", nil, req)
		res, err := runner.CheckTests(in.registry...)
		sp.end()
		if err != nil {
			o.fail("registry: %v", err)
			return nil, false
		}
		o.done("call", t0, float64(len(res)))
		for _, r := range res {
			o.check(r.Matches, "registry verdict %s under %s does not match its expectation", r.Test.Name, r.Atomicity)
			lines = append(lines, verdictLine(r))
		}
	case 1:
		sp := tr.start("cpp11.validate_mappings", nil, req)
		ms, err := runner.ValidateMappings(in.mappings...)
		sp.end()
		if err != nil {
			o.fail("mapping validation: %v", err)
			return nil, false
		}
		o.done("call", t0, float64(len(ms)))
		for _, r := range ms {
			lines = append(lines, mappingLine(r))
		}
	case 2:
		sp := tr.start("cpp11.validate_iriw", nil, req)
		defer sp.end()
		for _, typ := range rmwtso.AllTypes() {
			r, err := rmwtso.ValidateMapping(in.iriw, rmwtso.ReadWriteMapping, typ)
			if err != nil {
				o.fail("IRIW under %s: %v", typ, err)
				return nil, false
			}
			lines = append(lines, mappingLine(r))
		}
		o.done("call", t0, float64(len(lines)))
	default:
		i := c - 3
		t := in.generated[i]
		sp := tr.start("litmus.program", nil, req)
		res, err := runner.CheckTests(t)
		sp.end()
		if err != nil {
			o.fail("%s: %v", t.Name, err)
			return nil, false
		}
		o.done("call", t0, float64(len(res)))
		for _, r := range res {
			o.check(r.Candidates == in.candidates[i], "%s under %s: %d candidates, CountCandidates says %d",
				t.Name, r.Atomicity, r.Candidates, in.candidates[i])
			lines = append(lines, verdictLine(r))
		}
	}
	return lines, true
}
