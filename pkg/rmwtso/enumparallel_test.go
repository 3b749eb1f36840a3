package rmwtso_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cpp11"
	"repro/internal/memmodel"
	"repro/pkg/rmwtso"
)

// registryPrograms returns every enumerable TSO program the built-in
// suites induce: the program of each litmus test, plus every C/C++11
// program compiled under each Table 4 mapping. This is the corpus the
// parallel-vs-sequential differential suite runs over; it spans RMW-free
// classics, RMW chains with dropped cyclic candidates, and the IRIW-class
// compiled programs whose candidate spaces reach the tens of thousands.
func registryPrograms(t testing.TB) map[string]*rmwtso.Program {
	t.Helper()
	out := map[string]*rmwtso.Program{}
	for _, tst := range rmwtso.Suite().Tests() {
		out["litmus/"+tst.Name] = tst.Program
	}
	for _, p := range cpp11.AllPrograms() {
		for _, m := range rmwtso.AllMappings() {
			compiled, err := rmwtso.CompileCpp11(p, m)
			if err != nil {
				t.Fatalf("compile %s under %s: %v", p.Name, m, err)
			}
			out[fmt.Sprintf("cpp11/%s/%s", p.Name, m)] = compiled
		}
	}
	if len(out) < 15 {
		t.Fatalf("registry corpus suspiciously small: %d programs", len(out))
	}
	return out
}

// sequentialKeys enumerates the program with the sequential visitor API
// and returns each candidate's canonical key, in enumeration order.
func sequentialKeys(t testing.TB, p *rmwtso.Program) []string {
	t.Helper()
	var keys []string
	if err := rmwtso.EnumerateExecutionsFunc(p, func(x *rmwtso.Execution) bool {
		keys = append(keys, x.Key())
		return true
	}); err != nil {
		t.Fatalf("%s: EnumerateExecutionsFunc: %v", p.Name, err)
	}
	return keys
}

// TestEnumerateParallelDifferential asserts, for every program in both
// registries and workers in {1, 2, 8}, that the parallel enumeration
// visits exactly the same multiset of executions (as canonical keys) as
// the sequential one. Run under -race in CI, this is the lock-down for
// the rf-partitioned enumeration inside a single litmus verdict.
func TestEnumerateParallelDifferential(t *testing.T) {
	for name, p := range registryPrograms(t) {
		want := sequentialKeys(t, p)
		sort.Strings(want)
		for _, workers := range []int{1, 2, 8} {
			var got []string
			err := memmodel.EnumerateFunc(p, func(x *rmwtso.Execution) bool {
				got = append(got, x.Key())
				return true
			}, memmodel.EnumWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d executions, want %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: multisets differ at %d:\n got %s\nwant %s",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCountCandidatesMatchesEnumerationRegistryWide is the registry-wide
// generalization of the old SB-only count test: for every program in both
// registries, CountCandidates equals the number of enumerated executions,
// and stopping the enumeration after k visits yields exactly k — through
// the sequential API and the parallel one.
func TestCountCandidatesMatchesEnumerationRegistryWide(t *testing.T) {
	for name, p := range registryPrograms(t) {
		count, err := rmwtso.CountCandidates(p)
		if err != nil {
			t.Fatalf("%s: CountCandidates: %v", name, err)
		}
		enumerated := len(sequentialKeys(t, p))
		if enumerated != count {
			t.Fatalf("%s: CountCandidates=%d but enumeration visits %d", name, count, enumerated)
		}
		if count == 0 {
			t.Fatalf("%s: no candidates", name)
		}

		k := count/2 + 1
		for _, enumerate := range map[string]func(visit func(*rmwtso.Execution) bool) error{
			"sequential": func(visit func(*rmwtso.Execution) bool) error {
				return rmwtso.EnumerateExecutionsFunc(p, visit)
			},
			"parallel-8": func(visit func(*rmwtso.Execution) bool) error {
				return memmodel.EnumerateFunc(p, visit, memmodel.EnumWorkers(8))
			},
		} {
			visited := 0
			if err := enumerate(func(*rmwtso.Execution) bool {
				visited++
				return visited < k
			}); err != nil {
				t.Fatalf("%s: early-stop enumeration: %v", name, err)
			}
			if visited != k {
				t.Fatalf("%s: early stop visited %d executions, want exactly %d", name, visited, k)
			}
		}
	}
}

// TestCheckTestsEnumWorkersIdenticalVerdicts runs the full litmus suite
// with explicit per-verdict enumeration parallelism and asserts every
// verdict — truth value, candidate count, valid count, outcome keys — is
// identical to the sequential run.
func TestCheckTestsEnumWorkersIdenticalVerdicts(t *testing.T) {
	seq, err := rmwtso.Suite().Run(rmwtso.WithEnumWorkers(1), rmwtso.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, enumWorkers := range []int{0, 8} {
		par, err := rmwtso.Suite().Run(rmwtso.WithEnumWorkers(enumWorkers))
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("enumWorkers=%d: %d results, want %d", enumWorkers, len(par), len(seq))
		}
		for i := range seq {
			s, p := seq[i], par[i]
			if s.Test.Name != p.Test.Name || s.Atomicity != p.Atomicity {
				t.Fatalf("enumWorkers=%d: result %d is for %s/%s, want %s/%s",
					enumWorkers, i, p.Test.Name, p.Atomicity, s.Test.Name, s.Atomicity)
			}
			if s.Holds != p.Holds || s.Candidates != p.Candidates || s.ValidExecutions != p.ValidExecutions {
				t.Fatalf("enumWorkers=%d: %s/%s verdict drifted: holds %v/%v candidates %d/%d valid %d/%d",
					enumWorkers, s.Test.Name, s.Atomicity, s.Holds, p.Holds,
					s.Candidates, p.Candidates, s.ValidExecutions, p.ValidExecutions)
			}
			wantKeys := s.Outcomes.Keys()
			gotKeys := p.Outcomes.Keys()
			if len(wantKeys) != len(gotKeys) {
				t.Fatalf("enumWorkers=%d: %s/%s outcome sets differ", enumWorkers, s.Test.Name, s.Atomicity)
			}
			for j := range wantKeys {
				if wantKeys[j] != gotKeys[j] {
					t.Fatalf("enumWorkers=%d: %s/%s outcome %d differs: %s vs %s",
						enumWorkers, s.Test.Name, s.Atomicity, j, gotKeys[j], wantKeys[j])
				}
			}
		}
	}
}

// TestValidateMappingsEnumWorkersIdentical does the same for the C/C++11
// mapping validations, whose compiled IRIW program is the largest
// candidate space in the repository.
func TestValidateMappingsEnumWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("IRIW-class mapping validation is slow in -short mode")
	}
	progs := cpp11.AllPrograms()
	seq, err := rmwtso.NewRunner(rmwtso.WithEnumWorkers(1), rmwtso.WithParallelism(1)).ValidateMappings(progs...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := rmwtso.NewRunner(rmwtso.WithEnumWorkers(8)).ValidateMappings(progs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) == 0 {
		t.Fatalf("result counts differ: %d vs %d (programs: %d)", len(seq), len(par), len(progs))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Program != p.Program || s.Mapping != p.Mapping || s.Atomicity != p.Atomicity {
			t.Fatalf("result %d ordering drifted: %s/%s/%s vs %s/%s/%s",
				i, s.Program, s.Mapping, s.Atomicity, p.Program, p.Mapping, p.Atomicity)
		}
		if s.Sound != p.Sound || s.Racy != p.Racy {
			t.Fatalf("%s/%s/%s: soundness drifted: sound %v/%v racy %v/%v",
				s.Program, s.Mapping, s.Atomicity, s.Sound, p.Sound, s.Racy, p.Racy)
		}
		if fmt.Sprint(s.TSOOutcomes) != fmt.Sprint(p.TSOOutcomes) {
			t.Fatalf("%s/%s/%s: TSO outcome sets drifted", s.Program, s.Mapping, s.Atomicity)
		}
	}
}
