package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestPatternAndReplacementStrings(t *testing.T) {
	if LockBased.String() != "lock-based" || Transactional.String() != "transactional" || WorkStealing.String() != "work-stealing" {
		t.Error("pattern names wrong")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern should render")
	}
	if NoReplacement.String() != "none" || ReadReplacement.String() != "read-replacement" || WriteReplacement.String() != "write-replacement" {
		t.Error("replacement names wrong")
	}
	if Replacement(9).String() == "" {
		t.Error("unknown replacement should render")
	}
}

func TestTable3ProfilesWellFormed(t *testing.T) {
	profiles := Table3Profiles()
	if len(profiles) != 7 {
		t.Fatalf("Table 3 has 7 benchmarks, got %d", len(profiles))
	}
	wantOrder := []string{"radiosity", "raytrace", "fluidanimate", "dedup", "bayes", "genome", "wsq-mst"}
	for i, p := range profiles {
		if p.Name != wantOrder[i] {
			t.Errorf("profile %d = %q, want %q", i, p.Name, wantOrder[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.PaperRMWsPer1000 <= 0 || p.PaperUniquePct <= 0 {
			t.Errorf("%s: missing paper reference values", p.Name)
		}
	}
	if names := ProfileNames(); len(names) != 7 || names[0] != "radiosity" {
		t.Errorf("ProfileNames = %v", names)
	}
}

func TestFindProfile(t *testing.T) {
	p, err := FindProfile("bayes")
	if err != nil || p.Suite != "STAMP" {
		t.Errorf("FindProfile(bayes) = %+v, %v", p, err)
	}
	if _, err := FindProfile("nonesuch"); err == nil {
		t.Error("unknown benchmark must not be found")
	}
	if WSQProfile().Name != "wsq-mst" {
		t.Error("WSQProfile wrong")
	}
}

func TestProfileValidate(t *testing.T) {
	good := Table3Profiles()[0]
	bad := []func(Profile) Profile{
		func(p Profile) Profile { p.Name = ""; return p },
		func(p Profile) Profile { p.Iterations = 0; return p },
		func(p Profile) Profile { p.SharedLockLines = 0; return p },
		func(p Profile) Profile { p.SharedDataLines = 0; return p },
		func(p Profile) Profile { p.WriteFraction = 1.5; return p },
	}
	for i, mutate := range bad {
		if err := mutate(good).Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := Generator{Cores: 4, Seed: 42}
	p := Table3Profiles()[0]
	t1, err := g.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if t1.TotalOps() != t2.TotalOps() {
		t.Fatal("generation is not deterministic in size")
	}
	for c := range t1.PerCore {
		for i := range t1.PerCore[c] {
			if t1.PerCore[c][i] != t2.PerCore[c][i] {
				t.Fatalf("core %d op %d differs between runs", c, i)
			}
		}
	}
	// A different seed must produce a different stream.
	t3, err := Generator{Cores: 4, Seed: 43}.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1.PerCore[0] {
		if i >= len(t3.PerCore[0]) || t1.PerCore[0][i] != t3.PerCore[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := (Generator{Cores: 0, Seed: 1}).Generate(Table3Profiles()[0]); err == nil {
		t.Error("zero cores must fail")
	}
	if _, err := (Generator{Cores: 2, Seed: 1}).Generate(Profile{}); err == nil {
		t.Error("invalid profile must fail")
	}
	p, err := FindProfile("genome")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Generator{Cores: 2, Seed: 1}).Generate(p); err != nil {
		t.Errorf("Generate(genome): %v", err)
	}
}

// TestGeneratedDensitiesTrackTable3 checks the calibration: the structural
// RMW density of each generated trace must be within a factor of two of the
// paper's Table 3 value (the qualitative ordering is what the experiments
// rely on).
func TestGeneratedDensitiesTrackTable3(t *testing.T) {
	g := Generator{Cores: 8, Seed: 7}
	for _, p := range Table3Profiles() {
		trace, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		memops := trace.MemOps()
		rmws := trace.CountKind(sim.OpRMW)
		if memops == 0 || rmws == 0 {
			t.Fatalf("%s: empty trace", p.Name)
		}
		density := 1000 * float64(rmws) / float64(memops)
		ratio := density / p.PaperRMWsPer1000
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: generated RMW density %.2f per 1000 memops vs paper %.2f (ratio %.2f)",
				p.Name, density, p.PaperRMWsPer1000, ratio)
		}
	}
}

// TestGeneratedDensityOrderingMatchesPaper checks that the relative
// ordering of RMW densities across benchmarks follows Table 3 (bayes >
// wsq-mst > fluidanimate > radiosity > raytrace > dedup > genome).
func TestGeneratedDensityOrderingMatchesPaper(t *testing.T) {
	g := Generator{Cores: 8, Seed: 11}
	density := map[string]float64{}
	for _, p := range Table3Profiles() {
		trace, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		density[p.Name] = 1000 * float64(trace.CountKind(sim.OpRMW)) / float64(trace.MemOps())
	}
	order := []string{"bayes", "wsq-mst", "fluidanimate", "radiosity", "raytrace", "dedup", "genome"}
	for i := 0; i+1 < len(order); i++ {
		if density[order[i]] <= density[order[i+1]] {
			t.Errorf("density(%s)=%.2f should exceed density(%s)=%.2f (Table 3 ordering)",
				order[i], density[order[i]], order[i+1], density[order[i+1]])
		}
	}
}

// TestUniqueRMWFractionRoughlyTracksTable3 checks the unique-address
// calibration within loose bounds: dedup and wsq-mst must have markedly
// more unique RMW lines than raytrace.
func TestUniqueRMWFractionRoughlyTracksTable3(t *testing.T) {
	g := Generator{Cores: 8, Seed: 13}
	uniquePct := map[string]float64{}
	for _, p := range Table3Profiles() {
		trace, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		rmws := trace.CountKind(sim.OpRMW)
		uniquePct[p.Name] = 100 * float64(trace.UniqueRMWLines(lineBytes)) / float64(rmws)
	}
	if uniquePct["dedup"] <= uniquePct["raytrace"] {
		t.Errorf("dedup unique%% (%.2f) should exceed raytrace (%.2f)", uniquePct["dedup"], uniquePct["raytrace"])
	}
	if uniquePct["wsq-mst"] <= uniquePct["radiosity"] {
		t.Errorf("wsq-mst unique%% (%.2f) should exceed radiosity (%.2f)", uniquePct["wsq-mst"], uniquePct["radiosity"])
	}
	for name, pct := range uniquePct {
		if math.IsNaN(pct) || pct <= 0 || pct > 100 {
			t.Errorf("%s: unique%% = %.2f out of range", name, pct)
		}
	}
}

// TestReplacementVariants checks the wsq-mst_rr / wsq-mst_wr traces differ
// only in which half of the pop synchronization is an RMW, and that
// read-replacement has at least as many RMWs as write-replacement (both
// replace one access per pop).
func TestReplacementVariants(t *testing.T) {
	p := WSQProfile()
	base, err := Generator{Cores: 4, Seed: 3}.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Generator{Cores: 4, Seed: 3, Replacement: ReadReplacement}.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := Generator{Cores: 4, Seed: 3, Replacement: WriteReplacement}.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Name != "wsq-mst_rr" || wr.Name != "wsq-mst_wr" {
		t.Errorf("variant names = %q, %q", rr.Name, wr.Name)
	}
	if rr.CountKind(sim.OpRMW) <= 0 || wr.CountKind(sim.OpRMW) <= 0 {
		t.Fatal("variants lost their RMWs")
	}
	// Both variants replace exactly one access per pop, so their RMW counts
	// match each other and exceed or equal the baseline's CAS-only count
	// minus the probabilistic conflict CASes.
	if rr.CountKind(sim.OpRMW) != wr.CountKind(sim.OpRMW) {
		t.Errorf("rr RMWs %d != wr RMWs %d", rr.CountKind(sim.OpRMW), wr.CountKind(sim.OpRMW))
	}
	if base.TotalOps() == 0 {
		t.Fatal("baseline empty")
	}
}

// TestGeneratedTracesRunOnSimulator is the end-to-end smoke test: a small
// configuration runs every benchmark under every RMW type without
// deadlocking, and type-2 never loses to type-1.
func TestGeneratedTracesRunOnSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short mode")
	}
	cfg := sim.DefaultConfig().WithCores(4)
	small := Generator{Cores: 4, Seed: 5}
	for _, p := range Table3Profiles() {
		// Shrink the workload for test speed.
		p.Iterations = 40
		trace, err := small.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		results := map[core.AtomicityType]*sim.Result{}
		for _, typ := range core.AllTypes() {
			s, err := sim.New(cfg.WithRMWType(typ))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(trace)
			if err != nil {
				t.Fatalf("%s [%s]: %v", p.Name, typ, err)
			}
			results[typ] = res
		}
		t1 := results[core.Type1]
		t2 := results[core.Type2]
		t3 := results[core.Type3]
		for _, r := range []*sim.Result{t1, t2, t3} {
			if r.Deadlocked {
				t.Fatalf("%s [%s]: deadlocked", p.Name, r.RMWType)
			}
			if r.TotalRMWs() == 0 {
				t.Fatalf("%s [%s]: no RMWs executed", p.Name, r.RMWType)
			}
		}
		_, _, c1 := t1.AvgRMWCost()
		_, _, c2 := t2.AvgRMWCost()
		_, _, c3 := t3.AvgRMWCost()
		if c2 > c1 {
			t.Errorf("%s: type-2 RMW cost %.1f exceeds type-1 cost %.1f", p.Name, c2, c1)
		}
		if c3 > c1 {
			t.Errorf("%s: type-3 RMW cost %.1f exceeds type-1 cost %.1f", p.Name, c3, c1)
		}
		if t2.Cycles > t1.Cycles {
			t.Errorf("%s: type-2 execution time %d exceeds type-1 %d", p.Name, t2.Cycles, t1.Cycles)
		}
	}
}
