package memmodel_test

import (
	"testing"

	"repro/internal/cpp11"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
)

// closurePrograms returns the programs TestBaseClosureMatchesBaseOrder
// walks: every registry litmus test's program, every registry C/C++11
// program compiled under each mapping, and 100 generated programs of at
// most 20,000 candidates at each of two seeds.
func closurePrograms(t *testing.T) []*memmodel.Program {
	t.Helper()
	var out []*memmodel.Program
	for _, test := range litmus.AllTests() {
		out = append(out, test.Program)
	}
	for _, p := range cpp11.AllPrograms() {
		for _, m := range cpp11.AllMappings() {
			c, err := cpp11.Compile(p, m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	for _, seed := range []int64{23, 29} {
		out = append(out, memmodeltest.Programs(seed, 100, 20_000)...)
	}
	return out
}

// TestBaseClosureMatchesBaseOrder holds Execution.BaseClosure, which
// inserts a candidate's ws, rfe and fr edges into the program's closure
// of ppo ∪ bar, to the relation it closes. On every candidate of the full
// walk of the registry and generated programs, those that fail uniproc
// included, BaseClosure must report an acyclic base order exactly when
// BaseOrder().Acyclic() does, and then equal BaseOrder closed by
// TransitiveClosure, bit for bit. One relation is reused across every
// candidate and program, as the checker reuses its own. Every 16th
// candidate is checked again hand-built (NewExecution), whose
// candidate-independent relations, the closure of ppo ∪ bar among them,
// are derived on first use rather than shared by the walk.
func TestBaseClosureMatchesBaseOrder(t *testing.T) {
	var got memmodel.Relation
	acyclic, cyclic, mismatches, visits := 0, 0, 0, 0
	for _, p := range closurePrograms(t) {
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			if visits++; visits%16 == 0 {
				x = handBuilt(x)
			}
			want := x.BaseOrder()
			ok := x.BaseClosure(&got)
			switch {
			case ok != want.Acyclic():
				if mismatches++; mismatches <= 3 {
					t.Errorf("%s: BaseClosure reports acyclic=%t, BaseOrder().Acyclic() %t, for execution:\n%s",
						p.Name, ok, !ok, x)
				}
			case !ok:
				cyclic++
			case !sameRelation(&got, want.TransitiveClosure()):
				if mismatches++; mismatches <= 3 {
					t.Errorf("%s: BaseClosure holds\n%sthe closure of BaseOrder holds\n%sfor execution:\n%s",
						p.Name, got.Format(x.Events), want.Format(x.Events), x)
				}
			default:
				acyclic++
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if mismatches > 3 {
		t.Errorf("%d further mismatches suppressed", mismatches-3)
	}
	if acyclic == 0 || cyclic == 0 {
		t.Fatalf("%d acyclic and %d cyclic candidates; want both nonzero", acyclic, cyclic)
	}
	t.Logf("%d acyclic and %d cyclic candidates agree", acyclic, cyclic)
}

// handBuilt rebuilds x through the map-edge constructor, from copies of
// its events, its reads-from map and its coherence orders.
func handBuilt(x *memmodel.Execution) *memmodel.Execution {
	ws := map[memmodel.Addr][]int{}
	for _, a := range x.Program.Addrs() {
		ws[a] = x.WSOrder(a)
	}
	return memmodel.NewExecution(x.Program, x.Clone().Events, x.RFMap(), ws)
}

// sameRelation reports whether a and b range over the same events and
// hold the same pairs.
func sameRelation(a, b *memmodel.Relation) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		for j := 0; j < a.Size(); j++ {
			if a.Has(i, j) != b.Has(i, j) {
				return false
			}
		}
	}
	return true
}

// BenchmarkBaseClosureWalk is the base closure's rung, between closed
// insertion (BenchmarkAddClosed) and the checker (internal/core's
// BenchmarkClassify): it walks the uniproc candidates of the first 24
// programs of the walk-level differential test (seed 23, at most 20,000
// candidates each), one reused arena per program, and closes each
// candidate's base order as a verdict's classifier does
// (Execution.BaseClosure, rebuilding only the steps the odometer
// invalidated). It reports ns/candidate, assembly included, and
// insertions/candidate: the closed insertions of the steps rebuilt, a
// step that closes a cycle counted whole.
func BenchmarkBaseClosureWalk(b *testing.B) {
	var (
		walks []*memmodel.Walk
		// candidate[i] assembles candidate g of walks[i] in its arena.
		candidate  []func(g int) *memmodel.Execution
		candidates int
		insertions int
		r          memmodel.Relation
	)
	for _, p := range memmodeltest.Programs(23, 24, 20_000) {
		w, err := memmodel.NewWalk(p, true)
		if err != nil {
			b.Fatal(err)
		}
		arena := w.NewArena()
		walks = append(walks, w)
		candidate = append(candidate, func(g int) *memmodel.Execution { return w.Candidate(g, arena) })
	}
	for i, w := range walks {
		for g := 0; g < w.Total(); g++ {
			x := candidate[i](g)
			if x == nil {
				continue
			}
			candidates++
			built, cyclic := x.ClosureProgress()
			x.BaseClosure(&r)
			if cyclic {
				continue
			}
			after, nowCyclic := x.ClosureProgress()
			for k := built; k < after; k++ {
				insertions += x.StepInsertions(k)
			}
			if nowCyclic {
				insertions += x.StepInsertions(after)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, w := range walks {
			for g := 0; g < w.Total(); g++ {
				if x := candidate[i](g); x != nil {
					x.BaseClosure(&r)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*candidates), "ns/candidate")
	b.ReportMetric(float64(insertions)/float64(candidates), "insertions/candidate")
}
