package memmodel_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/memmodel"
)

// TestUniprocWalkRangesMatchFreshAssembly checks that a walker's state
// never leaks across a range start: the odometer walk reassigns only the
// locations whose digit changed and rebuilds only the closure levels from
// the first of them on, so whatever its arena held before must not show.
// On random index ranges of the full walk and of the uniproc walk of
// every program TestBaseClosureMatchesBaseOrder walks, every candidate
// must equal an assembly of the same index in an arena of its own: the
// same nil-ness (cyclic values), rf, ws and event values, and the same
// closed base order. Ranges alternate between a fresh arena and the
// previous range's, which jumps the odometer anywhere, and only some
// candidates close their base order, so invalidations pile up over the
// candidates that skip it, as in a walk whose classifier visits some.
func TestUniprocWalkRangesMatchFreshAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var walked, fresh memmodel.Relation
	candidates, dropped, closed := 0, 0, 0
	for _, p := range closurePrograms(t) {
		for _, uniproc := range []bool{false, true} {
			w, err := memmodel.NewWalk(p, uniproc)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if w.Total() == 0 {
				continue
			}
			arena := w.NewArena()
			for r := 0; r < 6; r++ {
				if r%2 == 0 {
					arena = w.NewArena()
				}
				lo := rng.Intn(w.Total())
				hi := min(w.Total(), lo+1+rng.Intn(64))
				for g := lo; g < hi; g++ {
					x, want := w.Candidate(g, arena), w.Candidate(g, w.NewArena())
					candidates++
					if (x == nil) != (want == nil) {
						t.Fatalf("%s (uniproc %t) candidate %d: walked nil %t, fresh nil %t", p.Name, uniproc, g, x == nil, want == nil)
					}
					if x == nil {
						dropped++
						continue
					}
					if diff := sameCandidate(x, want); diff != "" {
						t.Fatalf("%s (uniproc %t) candidate %d: %s; walked:\n%sfresh:\n%s", p.Name, uniproc, g, diff, x, want)
					}
					if rng.Intn(2) == 0 {
						continue
					}
					closed++
					ok, wantOK := x.BaseClosure(&walked), want.BaseClosure(&fresh)
					if ok != wantOK || ok && !sameRelation(&walked, &fresh) {
						t.Fatalf("%s (uniproc %t) candidate %d: walked base closure (acyclic %t):\n%sfresh (acyclic %t):\n%s",
							p.Name, uniproc, g, ok, walked.Format(x.Events), wantOK, fresh.Format(want.Events))
					}
				}
			}
		}
	}
	if dropped == 0 || closed == 0 {
		t.Fatalf("%d candidates, %d dropped for cyclic values, %d closed; want some of each", candidates, dropped, closed)
	}
	t.Logf("%d candidates agree, %d of them dropped and %d closed", candidates, dropped, closed)
}

// sameCandidate describes the first difference between two assemblies of
// one candidate, "" when there is none: their rf choices, their ws orders
// and their events' values.
func sameCandidate(x, y *memmodel.Execution) string {
	for i, e := range x.Events {
		w, _ := x.ReadsFrom(i)
		v, _ := y.ReadsFrom(i)
		switch {
		case w != v:
			return "the rf choices differ at " + e.String()
		case e.Value != y.Events[i].Value:
			return "the values differ at " + e.String()
		}
	}
	for _, a := range x.Program.Addrs() {
		if !slices.Equal(x.WSOrder(a), y.WSOrder(a)) {
			return "the ws orders of " + memmodel.AddrName(a) + " differ"
		}
	}
	return ""
}
