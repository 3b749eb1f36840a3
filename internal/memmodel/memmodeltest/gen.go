// Package memmodeltest draws seeded random litmus programs for the
// differential tests and benchmarks of the candidate enumeration and the
// model checker, and the reference predicate those tests hold the walk of
// memmodel.EnumUniprocAdjacentRMW to (AdjacentRMW). It is test support:
// nothing outside tests and benchmarks imports it.
package memmodeltest

import (
	"fmt"
	"math/rand"

	"repro/internal/memmodel"
)

// maxDraws bounds the rejection sampling of one program.
const maxDraws = 10_000

// Programs returns n programs derived from seed alone: 2–4 threads of 1–4
// instructions each (store, load, xchg, xadd, tas, mfence) over 1–3
// locations, each with at most maxCandidates candidate executions
// (memmodel.CountCandidates). Draws over the bound are rejected; Programs
// panics if maxDraws draws in a row are, which a bound in the thousands
// never causes.
func Programs(seed int64, n, maxCandidates int) []*memmodel.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*memmodel.Program, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, draw(rng, fmt.Sprintf("gen-%d-%d", seed, i), maxCandidates))
	}
	return out
}

// draw draws random programs until one has at most maxCandidates
// candidates.
func draw(rng *rand.Rand, name string, maxCandidates int) *memmodel.Program {
	for i := 0; i < maxDraws; i++ {
		p := random(rng, name)
		n, err := memmodel.CountCandidates(p)
		if err == nil && n <= maxCandidates {
			return p
		}
	}
	panic(fmt.Sprintf("memmodeltest: no program with at most %d candidates in %d draws", maxCandidates, maxDraws))
}

// random emits one random program. Plain accesses are drawn three times
// as often as each RMW form and the fence, as in the benchmark's
// generator (tools/rmwbench).
func random(rng *rand.Rand, name string) *memmodel.Program {
	p := memmodel.NewProgram(name)
	locs := 1 + rng.Intn(3)
	for t, threads := 0, 2+rng.Intn(3); t < threads; t++ {
		instrs := make([]memmodel.Instr, 1+rng.Intn(4))
		for i := range instrs {
			addr := memmodel.Addr(rng.Intn(locs))
			reg := fmt.Sprintf("r%d", i)
			val := memmodel.Value(1 + rng.Intn(2))
			switch k := rng.Intn(10); {
			case k < 3:
				instrs[i] = memmodel.Write(addr, val)
			case k < 6:
				instrs[i] = memmodel.Read(addr, reg)
			case k == 6:
				instrs[i] = memmodel.Exchange(addr, reg, val)
			case k == 7:
				instrs[i] = memmodel.FetchAdd(addr, reg, val)
			case k == 8:
				instrs[i] = memmodel.TestAndSet(addr, reg)
			default:
				instrs[i] = memmodel.Fence()
			}
		}
		p.AddThread(instrs...)
	}
	return p
}
