package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRelationAddHasRemove(t *testing.T) {
	r := NewRelation(4)
	if r.Size() != 4 {
		t.Fatalf("Size = %d, want 4", r.Size())
	}
	if r.Has(0, 1) {
		t.Fatal("empty relation should not contain (0,1)")
	}
	r.Add(0, 1)
	if !r.Has(0, 1) {
		t.Fatal("Add(0,1) not visible")
	}
	if r.Has(1, 0) {
		t.Fatal("relation should be directional")
	}
	r.Remove(0, 1)
	if r.Has(0, 1) {
		t.Fatal("Remove(0,1) not applied")
	}
}

func TestRelationSelfEdgesAreRepresentable(t *testing.T) {
	// The diagonal is representable: (i,i) is a length-1 cycle. This keeps
	// the relation closed under TransitiveClosure — a self-edge surfaced by
	// the closure can be copied into a derived relation verbatim.
	r := NewRelation(3)
	r.Add(1, 1)
	if !r.Has(1, 1) {
		t.Fatal("Add(1,1) must be representable")
	}
	if r.Count() != 1 {
		t.Fatalf("Count = %d, want 1", r.Count())
	}
	if r.Acyclic() {
		t.Fatal("a self-edge is a length-1 cycle")
	}
	if _, err := r.TopoSort(); err == nil {
		t.Fatal("TopoSort must fail on a self-edge")
	}
	cycle := r.FindCycle()
	if len(cycle) != 1 || cycle[0] != 1 {
		t.Fatalf("FindCycle = %v, want the length-1 cycle [1]", cycle)
	}
	r.Remove(1, 1)
	if r.Has(1, 1) || !r.Acyclic() {
		t.Fatal("Remove(1,1) must restore acyclicity")
	}
}

func TestRelationClosureSelfEdgeRoundTrips(t *testing.T) {
	// A 2-cycle's transitive closure writes the diagonal; re-adding those
	// pairs to a fresh relation must reproduce the closure exactly. Under
	// the old semantics Add silently dropped (i,i) and the round trip lost
	// the cycle evidence.
	r := NewRelation(3)
	r.Add(0, 1)
	r.Add(1, 0)
	closed := r.Clone().TransitiveClosure()
	if !closed.Has(0, 0) || !closed.Has(1, 1) {
		t.Fatal("closure of a 2-cycle must contain the diagonal")
	}
	rebuilt := NewRelation(3)
	for _, p := range closed.Pairs() {
		rebuilt.Add(p[0], p[1])
	}
	if rebuilt.Count() != closed.Count() {
		t.Fatalf("rebuilt relation has %d pairs, closure has %d", rebuilt.Count(), closed.Count())
	}
	if rebuilt.Acyclic() {
		t.Fatal("rebuilt closure must still be cyclic")
	}
}

func TestRelationCountAndPairs(t *testing.T) {
	r := NewRelation(3)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(0, 2)
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
	pairs := r.Pairs()
	if len(pairs) != 3 {
		t.Fatalf("len(Pairs) = %d, want 3", len(pairs))
	}
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	for i, p := range pairs {
		if p != want[i] {
			t.Errorf("Pairs[%d] = %v, want %v", i, p, want[i])
		}
	}
}

func TestRelationCloneIsIndependent(t *testing.T) {
	r := NewRelation(3)
	r.Add(0, 1)
	c := r.Clone()
	c.Add(1, 2)
	if r.Has(1, 2) {
		t.Fatal("mutating clone must not affect original")
	}
	if !c.Has(0, 1) {
		t.Fatal("clone must preserve existing edges")
	}
}

func TestRelationUnion(t *testing.T) {
	a := NewRelation(3)
	a.Add(0, 1)
	b := NewRelation(3)
	b.Add(1, 2)
	a.Union(b)
	if !a.Has(0, 1) || !a.Has(1, 2) {
		t.Fatal("union missing edges")
	}
	// Union with nil is a no-op.
	a.Union(nil)
	if a.Count() != 2 {
		t.Fatal("union with nil changed the relation")
	}
}

func TestRelationUnionSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("union of differently sized relations should panic")
		}
	}()
	NewRelation(2).Union(NewRelation(3))
}

func TestTransitiveClosure(t *testing.T) {
	r := NewRelation(4)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(2, 3)
	r.TransitiveClosure()
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 3}} {
		if !r.Has(p[0], p[1]) {
			t.Errorf("closure missing (%d,%d)", p[0], p[1])
		}
	}
	if r.Has(3, 0) {
		t.Error("closure added a reverse edge")
	}
}

func TestAcyclic(t *testing.T) {
	r := NewRelation(3)
	r.Add(0, 1)
	r.Add(1, 2)
	if !r.Acyclic() {
		t.Fatal("chain should be acyclic")
	}
	r.Add(2, 0)
	if r.Acyclic() {
		t.Fatal("cycle not detected")
	}
}

func TestTopoSortChain(t *testing.T) {
	r := NewRelation(4)
	r.Add(2, 1)
	r.Add(1, 0)
	r.Add(0, 3)
	order, err := r.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	for _, p := range r.Pairs() {
		if pos[p[0]] >= pos[p[1]] {
			t.Errorf("topo order violates edge (%d,%d)", p[0], p[1])
		}
	}
}

func TestTopoSortCyclicFails(t *testing.T) {
	r := NewRelation(2)
	r.Add(0, 1)
	r.Add(1, 0)
	if _, err := r.TopoSort(); err == nil {
		t.Fatal("TopoSort of a cyclic relation must fail")
	}
}

func TestFindCycle(t *testing.T) {
	r := NewRelation(4)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(2, 1)
	cycle := r.FindCycle()
	if cycle == nil {
		t.Fatal("cycle not found")
	}
	// Every consecutive pair (and the wrap-around pair) must be an edge.
	for i := range cycle {
		from := cycle[i]
		to := cycle[(i+1)%len(cycle)]
		if !r.Has(from, to) {
			t.Errorf("reported cycle uses non-edge (%d,%d)", from, to)
		}
	}
	acyc := NewRelation(3)
	acyc.Add(0, 1)
	if acyc.FindCycle() != nil {
		t.Error("FindCycle on acyclic relation should return nil")
	}
}

func TestRelationFormat(t *testing.T) {
	events := []*Event{
		{Index: 0, Thread: 0, Kind: KindWrite, Addr: 0, Value: 1},
		{Index: 1, Thread: 1, Kind: KindRead, Addr: 0, Value: 1},
	}
	r := NewRelation(2)
	r.Add(0, 1)
	s := r.Format(events)
	if s == "" {
		t.Fatal("Format returned empty string for non-empty relation")
	}
}

// randomDAGRelation builds a random DAG by only adding edges from lower to
// higher indices under a random permutation.
func randomDAGRelation(rng *rand.Rand, n int) *Relation {
	perm := rng.Perm(n)
	r := NewRelation(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				r.Add(perm[i], perm[j])
			}
		}
	}
	return r
}

func TestPropertyTopoSortConsistentWithEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 2 + local.Intn(9)
		r := randomDAGRelation(local, n)
		if !r.Acyclic() {
			return false // construction guarantees acyclicity
		}
		order, err := r.TopoSort()
		if err != nil {
			return false
		}
		pos := map[int]int{}
		for i, v := range order {
			pos[v] = i
		}
		for _, p := range r.Pairs() {
			if pos[p[0]] >= pos[p[1]] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// boolRelation is a straightforward []bool adjacency-matrix reference
// implementation — the representation the bitset replaced. The property
// test below checks the two agree operation by operation on random edge
// sets, including self-edges and sizes straddling the 64-event word
// boundary (which switches Acyclic between its single-word and
// multi-word paths).
type boolRelation struct {
	n   int
	adj []bool
}

func newBoolRelation(n int) *boolRelation { return &boolRelation{n: n, adj: make([]bool, n*n)} }

func (r *boolRelation) add(i, j int)      { r.adj[i*r.n+j] = true }
func (r *boolRelation) has(i, j int) bool { return r.adj[i*r.n+j] }

func (r *boolRelation) closure() {
	for k := 0; k < r.n; k++ {
		for i := 0; i < r.n; i++ {
			if !r.has(i, k) {
				continue
			}
			for j := 0; j < r.n; j++ {
				if r.has(k, j) {
					r.add(i, j)
				}
			}
		}
	}
}

func (r *boolRelation) acyclic() bool {
	// A relation is cyclic iff its transitive closure touches the diagonal.
	c := newBoolRelation(r.n)
	copy(c.adj, r.adj)
	c.closure()
	for i := 0; i < r.n; i++ {
		if c.has(i, i) {
			return false
		}
	}
	return true
}

func TestPropertyBitsetMatchesBoolMatrix(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		// Sizes 2..80: crossing 64 exercises the multi-word bitset paths.
		n := 2 + local.Intn(79)
		bits := NewRelation(n)
		ref := newBoolRelation(n)
		edges := 1 + local.Intn(3*n)
		for e := 0; e < edges; e++ {
			i, j := local.Intn(n), local.Intn(n) // self-edges included
			bits.Add(i, j)
			ref.add(i, j)
		}
		// A few removals, mirrored.
		for e := 0; e < edges/4; e++ {
			i, j := local.Intn(n), local.Intn(n)
			bits.Remove(i, j)
			ref.adj[i*n+j] = false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if bits.Has(i, j) != ref.has(i, j) {
					return false
				}
			}
		}
		// Union against a second random relation.
		other := NewRelation(n)
		for e := 0; e < n; e++ {
			i, j := local.Intn(n), local.Intn(n)
			other.Add(i, j)
			ref.add(i, j)
		}
		bits.Union(other)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if bits.Has(i, j) != ref.has(i, j) {
					return false
				}
			}
		}
		// Acyclicity must agree before closure...
		if bits.Acyclic() != ref.acyclic() {
			return false
		}
		// ...and TopoSort must succeed exactly on the acyclic ones, with an
		// order consistent with every edge.
		order, err := bits.TopoSort()
		if (err == nil) != ref.acyclic() {
			return false
		}
		if err == nil {
			pos := make([]int, n)
			for i, v := range order {
				pos[v] = i
			}
			for _, p := range bits.Pairs() {
				if pos[p[0]] >= pos[p[1]] {
					return false
				}
			}
		}
		// The closure must match the reference closure.
		ref.closure()
		closed := bits.Clone().TransitiveClosure()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if closed.Has(i, j) != ref.has(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCycleImpliesTopoSortFails(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 3 + local.Intn(6)
		r := randomDAGRelation(local, n)
		// Force a cycle by adding a back edge along an existing path if any.
		pairs := r.Pairs()
		if len(pairs) == 0 {
			return true
		}
		p := pairs[local.Intn(len(pairs))]
		r.Add(p[1], p[0])
		if r.Acyclic() {
			return false
		}
		_, err := r.TopoSort()
		return err != nil && r.FindCycle() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAddClosedMatchesBoolMatrix checks AddClosed, the
// incremental closure of the table search and of internal/core's ato
// fixpoint, against the reference closure: adding a random edge sequence
// one edge at a time to a closed relation must keep it equal to the
// closure of the accepted edges, and an edge is refused (leaving the
// relation unchanged) exactly when it would close a cycle. Sizes
// straddle the 64-event word boundary, so the one-word and the
// multi-word paths both run.
func TestPropertyAddClosedMatchesBoolMatrix(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 2 + local.Intn(79)
		r := NewRelation(n)
		ref := newBoolRelation(n)
		for e := 0; e < 2*n; e++ {
			i, j := local.Intn(n), local.Intn(n)
			with := newBoolRelation(n)
			copy(with.adj, ref.adj)
			with.add(i, j)
			before := r.Clone()
			if r.AddClosed(i, j) != with.acyclic() {
				return false
			}
			if !with.acyclic() {
				for k := range before.bits {
					if r.bits[k] != before.bits[k] {
						return false
					}
				}
				continue
			}
			ref = with
			closed := newBoolRelation(n)
			copy(closed.adj, ref.adj)
			closed.closure()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if r.Has(a, b) != closed.has(a, b) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRelationCopyFromResizes pins that CopyFrom leaves no stale pair
// behind when it reuses a backing array that held a larger relation.
func TestRelationCopyFromResizes(t *testing.T) {
	big := NewRelation(70)
	for i := 0; i < 70; i++ {
		for j := 0; j < 70; j++ {
			big.Add(i, j)
		}
	}
	small := NewRelation(3)
	small.Add(0, 1)
	big.CopyFrom(small)
	if big.Size() != 3 || big.Count() != 1 || !big.Has(0, 1) {
		t.Fatalf("CopyFrom of a 3-event relation: size %d, %d pairs %v; want size 3 and the one pair (0,1)",
			big.Size(), big.Count(), big.Pairs())
	}
}
