package workload

import (
	"testing"

	"repro/internal/sim"
)

// drain consumes a stream into a slice.
func drain(t *testing.T, s sim.OpStream) []sim.Op {
	t.Helper()
	var ops []sim.Op
	for {
		op, ok := s.Next()
		if !ok {
			// A well-behaved stream keeps reporting exhaustion.
			if _, again := s.Next(); again {
				t.Fatal("stream yielded an op after reporting exhaustion")
			}
			return ops
		}
		ops = append(ops, op)
	}
}

// TestSourceMatchesGenerate asserts the tentpole identity: the lazy
// per-core streams yield exactly the op sequences Generate materializes,
// for every Table 3 profile and replacement variant.
func TestSourceMatchesGenerate(t *testing.T) {
	variants := []Replacement{NoReplacement, ReadReplacement, WriteReplacement}
	for _, p := range Table3Profiles() {
		p.Iterations = 24 // keep the cross-product quick
		for _, v := range variants {
			if v != NoReplacement && p.Pattern != WorkStealing {
				continue
			}
			g := Generator{Cores: 4, Seed: 99, Replacement: v}
			trace, err := g.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			src, err := g.Source(p)
			if err != nil {
				t.Fatal(err)
			}
			if src.Name() != trace.Name {
				t.Fatalf("%s/%v: source name %q != trace name %q", p.Name, v, src.Name(), trace.Name)
			}
			if src.Cores() != trace.Cores() {
				t.Fatalf("%s/%v: source cores %d != trace cores %d", p.Name, v, src.Cores(), trace.Cores())
			}
			for c := 0; c < src.Cores(); c++ {
				ops := drain(t, src.Stream(c))
				if len(ops) != len(trace.PerCore[c]) {
					t.Fatalf("%s/%v core %d: streamed %d ops, materialized %d",
						p.Name, v, c, len(ops), len(trace.PerCore[c]))
				}
				for i := range ops {
					if ops[i] != trace.PerCore[c][i] {
						t.Fatalf("%s/%v core %d op %d: streamed %+v != materialized %+v",
							p.Name, v, c, i, ops[i], trace.PerCore[c][i])
					}
				}
			}
		}
	}
}

// TestSourceStreamsIndependent asserts Stream returns fresh, replayable
// iterators: two streams of the same core yield identical sequences, and
// consuming one does not advance the other.
func TestSourceStreamsIndependent(t *testing.T) {
	g := Generator{Cores: 2, Seed: 5}
	p := Table3Profiles()[0]
	p.Iterations = 16
	src, err := g.Source(p)
	if err != nil {
		t.Fatal(err)
	}
	a := src.Stream(1)
	// Partially consume a third stream first; it must not perturb a or b.
	spoiler := src.Stream(1)
	for i := 0; i < 10; i++ {
		spoiler.Next()
	}
	b := src.Stream(1)
	opsA := drain(t, a)
	opsB := drain(t, b)
	if len(opsA) != len(opsB) {
		t.Fatalf("replayed stream has %d ops, first had %d", len(opsB), len(opsA))
	}
	for i := range opsA {
		if opsA[i] != opsB[i] {
			t.Fatalf("op %d differs between streams of the same core", i)
		}
	}
}

// TestStreamWindowBounded asserts the O(window) memory claim: the episode
// buffer's high-water mark stays below an analytic per-episode bound that
// depends only on the profile's episode shape — never on the iteration
// count — and far below the total trace length.
func TestStreamWindowBounded(t *testing.T) {
	for _, p := range Table3Profiles() {
		p.Iterations = 400
		g := Generator{Cores: 2, Seed: 17}
		src, err := g.Source(p)
		if err != nil {
			t.Fatal(err)
		}
		cs := src.Stream(0).(*coreStream)
		total := 0
		for {
			if _, ok := cs.Next(); !ok {
				break
			}
			total++
		}
		// The longest possible episode of any pattern: the private phase
		// (one compute plus PrivateOpsPerEpisode), the critical-section /
		// read-set accesses, and a small constant of synchronization ops
		// (locks, clock bump, pop/push/steal accesses — at most 16 across
		// all three patterns).
		bound := 1 + p.PrivateOpsPerEpisode + p.CriticalSectionOps + 16
		if cs.maxWindow > bound {
			t.Errorf("%s: buffer high-water mark %d exceeds the per-episode bound %d",
				p.Name, cs.maxWindow, bound)
		}
		if cs.maxWindow*4 >= total {
			t.Errorf("%s: window %d is not small relative to the %d-op trace", p.Name, cs.maxWindow, total)
		}
	}
}

// TestSourceErrors mirrors Generate's validation on the lazy path.
func TestSourceErrors(t *testing.T) {
	if _, err := (Generator{Cores: 0, Seed: 1}).Source(Table3Profiles()[0]); err == nil {
		t.Error("zero cores must fail")
	}
	if _, err := (Generator{Cores: 2, Seed: 1}).Source(Profile{}); err == nil {
		t.Error("invalid profile must fail")
	}
	bad := Table3Profiles()[0]
	bad.Pattern = Pattern(42)
	if _, err := (Generator{Cores: 2, Seed: 1}).Source(bad); err == nil {
		t.Error("unknown pattern must fail")
	}
	p, err := FindProfile("genome")
	if err != nil {
		t.Fatal(err)
	}
	src, err := (Generator{Cores: 2, Seed: 1}).Source(p)
	if err != nil {
		t.Fatalf("Source(genome): %v", err)
	}
	if src.Profile().Name != "genome" {
		t.Errorf("source profile = %q", src.Profile().Name)
	}
}

// TestTraceNameSuffixes checks the shared naming rule of both trace forms.
func TestTraceNameSuffixes(t *testing.T) {
	p := WSQProfile()
	cases := []struct {
		r    Replacement
		want string
	}{
		{NoReplacement, "wsq-mst"},
		{ReadReplacement, "wsq-mst_rr"},
		{WriteReplacement, "wsq-mst_wr"},
	}
	for _, c := range cases {
		if got := (Generator{Cores: 1, Replacement: c.r}).TraceName(p); got != c.want {
			t.Errorf("TraceName with %v = %q, want %q", c.r, got, c.want)
		}
	}
}
