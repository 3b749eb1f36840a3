package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunTable1MatchesPaper(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable1Matches(rows); err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "type-1") || !strings.Contains(out, "type-3") {
		t.Errorf("Table 1 rendering incomplete:\n%s", out)
	}
}

func TestCheckTable1MatchesDetectsMismatch(t *testing.T) {
	rows := Table1Expected()
	rows[2].DekkerWrites = true // contradicts the paper
	if err := CheckTable1Matches(rows); err == nil {
		t.Error("mismatch not detected")
	}
	if err := CheckTable1Matches(rows[:2]); err == nil {
		t.Error("row-count mismatch not detected")
	}
}

func TestRenderTable2(t *testing.T) {
	out := RenderTable2(sim.DefaultConfig().Table2())
	for _, want := range []string{"32 core", "Write Buffer", "MOESI", "2D Mesh"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable4MatchesAppendix(t *testing.T) {
	rows, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("Table 4 validation has %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		wantSound := !(r.Mapping.String() == "write-mapping" && r.Atomicity == core.Type3)
		if r.Sound != wantSound {
			t.Errorf("%s under %s: sound=%v, want %v", r.Mapping, r.Atomicity, r.Sound, wantSound)
		}
		if !r.Sound && r.Counterexample == "" {
			t.Errorf("%s under %s: unsound without counterexample", r.Mapping, r.Atomicity)
		}
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "lock xadd(0)") || !strings.Contains(out, "lock xchg") {
		t.Errorf("Table 4 rendering missing instruction selection:\n%s", out)
	}
}

func TestOptionsHelpers(t *testing.T) {
	def := DefaultOptions()
	if def.Cores != 32 || def.Scale != 1.0 {
		t.Errorf("DefaultOptions = %+v", def)
	}
	quick := QuickOptions()
	if quick.Cores >= def.Cores || quick.Scale >= def.Scale {
		t.Error("QuickOptions should be smaller than DefaultOptions")
	}
	cfg := quick.baseConfig()
	if cfg.Cores != quick.Cores {
		t.Error("baseConfig did not apply the core count")
	}
	override := sim.DefaultConfig()
	override.MemLatencyCycles = 123
	quick.Config = &override
	if quick.baseConfig().MemLatencyCycles != 123 {
		t.Error("config override ignored")
	}
	p := workload.Table3Profiles()[0]
	scaled := quick.scaled(p)
	if scaled.Iterations >= p.Iterations || scaled.Iterations < 8 {
		t.Errorf("scaled iterations = %d", scaled.Iterations)
	}
	if (Options{Scale: 1.0}).scaled(p).Iterations != p.Iterations {
		t.Error("scale 1.0 should not change iterations")
	}
}

// TestRegistryProfileDigestsPinned pins Profile.Digest and
// Source.WorkloadDigest of every registry profile (Table3Specs and
// Cpp11Specs) at scales 1, 0.2 and 0.02. Both feed every simulator
// run's cache key, and every disk entry embeds its key, so a drift of one
// byte in either serialization would turn every existing cache cold. A
// workload digest is the profile digest followed by the replacement
// variant.
func TestRegistryProfileDigestsPinned(t *testing.T) {
	pinned := []struct {
		trace    string
		scale    float64
		workload string
	}{
		{"radiosity", 1, "8b51b45190351b91b52de98046d30fc29b04f4e68adbd2119fb560869c44008a|replace=0"},
		{"raytrace", 1, "ebb675a0535735a012191d5623a73420299c670368f59c3540ba3a3bdf6c093e|replace=0"},
		{"fluidanimate", 1, "4d0e211d1676945fb7b8576ed4f07f74e2b5a4cfeea892a935662849c4410efb|replace=0"},
		{"dedup", 1, "5117a0dd33a9fd5a3acd8e2f3123d88931f31832d0cc4f0aa1a14fb68649b367|replace=0"},
		{"bayes", 1, "03423bf6b68c21ba38ce6d0db3ceb8df8dcdde72ed675b773b5338b49c7eadc8|replace=0"},
		{"genome", 1, "6668a7fa99dfe1aa900e84c4426f0be8a6ec296e499953d04a401547f6285c21|replace=0"},
		{"wsq-mst", 1, "3d07de9e65d726edd998e77a57a2034058b461a345df596ba3f3868a3e451fb7|replace=0"},
		{"wsq-mst_wr", 1, "3d07de9e65d726edd998e77a57a2034058b461a345df596ba3f3868a3e451fb7|replace=2"},
		{"wsq-mst_rr", 1, "3d07de9e65d726edd998e77a57a2034058b461a345df596ba3f3868a3e451fb7|replace=1"},
		{"radiosity", 0.2, "52a1fcb3e68acc9d6ed1b0721eb8891e0e4375f1e0d8e902769d6270c7d6340d|replace=0"},
		{"raytrace", 0.2, "4a1649bb2246b753fcc188d3ae414c72f7a5bef1222d16c20346ac9e05845e70|replace=0"},
		{"fluidanimate", 0.2, "2a7f5238879b2864f80b42bace993f7a553d4aad72fe724a3662400cb2713a8f|replace=0"},
		{"dedup", 0.2, "880d9acae57e2cb262c40b7a2b7c4b9bbbc8965b661e12b0d89ac7c74516d0dc|replace=0"},
		{"bayes", 0.2, "7791aecc7bd8d8f06b5344dd905411632c0fefda8363812dd7e6c5eb3a9bcefd|replace=0"},
		{"genome", 0.2, "2518449a0c5e315b66d00b2b9c16cca6beab4effa4c54f343ee7c2aefb3ba3dd|replace=0"},
		{"wsq-mst", 0.2, "16f72b42db96f0a307234f26a66707aca80674d5c43fe6c3cba953fddac05f1d|replace=0"},
		{"wsq-mst_wr", 0.2, "16f72b42db96f0a307234f26a66707aca80674d5c43fe6c3cba953fddac05f1d|replace=2"},
		{"wsq-mst_rr", 0.2, "16f72b42db96f0a307234f26a66707aca80674d5c43fe6c3cba953fddac05f1d|replace=1"},
		{"radiosity", 0.02, "927f202cfe1980eed9375bd5e4e4b4f53678068add2b1e66fc0c9fd5e9564e86|replace=0"},
		{"raytrace", 0.02, "83b5b7fec7615dd23cb9ab2723a1537ddb156559e354675eed0ae76f13dbd049|replace=0"},
		{"fluidanimate", 0.02, "ba36c1dffcbf3aaaa04b18d0d3f714200b7f6aa30b2d5e38c448eaebc81b575a|replace=0"},
		{"dedup", 0.02, "9607ffc94490b1de40b649aa7dc77bb6e32fe2e10f0c588c7e56408d5cae10ad|replace=0"},
		{"bayes", 0.02, "a6c39c4ad4564e70f685c689c961174847915a9787fefb72609eefded9bbf539|replace=0"},
		{"genome", 0.02, "5e215d7d58781ad2f6815753184ea7119ad48b58d2142ef404d10e386a728b52|replace=0"},
		{"wsq-mst", 0.02, "4809269205e05934696b2a9c02491a0870d741d95631bb7b88524e905942432b|replace=0"},
		{"wsq-mst_wr", 0.02, "4809269205e05934696b2a9c02491a0870d741d95631bb7b88524e905942432b|replace=2"},
		{"wsq-mst_rr", 0.02, "4809269205e05934696b2a9c02491a0870d741d95631bb7b88524e905942432b|replace=1"},
	}
	specs := append(Table3Specs(), Cpp11Specs()...)
	if len(pinned) != 3*len(specs) {
		t.Fatalf("%d pins for %d registry specs at 3 scales: pin the new specs", len(pinned), len(specs))
	}
	for i, want := range pinned {
		spec := specs[i%len(specs)]
		p := Options{Scale: want.scale}.ScaledProfile(spec.Profile)
		src, err := workload.Generator{Cores: 4, Seed: 1, Replacement: spec.Variant}.Source(p)
		if err != nil {
			t.Fatal(err)
		}
		if src.Name() != want.trace {
			t.Fatalf("pin %d is for %s, the registry has %s there", i, want.trace, src.Name())
		}
		profile, _, _ := strings.Cut(want.workload, "|")
		if got := p.Digest(); got != profile {
			t.Errorf("%s at scale %g: Profile.Digest = %s, pinned %s", want.trace, want.scale, got, profile)
		}
		if got := src.WorkloadDigest(); got != want.workload {
			t.Errorf("%s at scale %g: WorkloadDigest = %s, pinned %s", want.trace, want.scale, got, want.workload)
		}
	}
}
