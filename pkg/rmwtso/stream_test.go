package rmwtso_test

import (
	"reflect"
	"testing"

	"repro/pkg/rmwtso"
)

// TestSimulateSourceMatchesSimulate asserts the acceptance criterion at
// the single-run level: for the same (profile, seed, cores, scale) a
// streamed run's statistics are identical — reflect.DeepEqual on the full
// Result, including every per-core counter — to the materialized run's,
// for every RMW type.
func TestSimulateSourceMatchesSimulate(t *testing.T) {
	cfg := rmwtso.DefaultSimConfig().WithCores(4)
	for _, name := range []string{"radiosity", "wsq-mst"} {
		profile, err := rmwtso.FindProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		profile.Iterations = 32
		gen := rmwtso.Generator{Cores: 4, Seed: 20130601}
		trace, err := gen.Generate(profile)
		if err != nil {
			t.Fatal(err)
		}
		src, err := gen.Source(profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range rmwtso.AllTypes() {
			materialized, err := rmwtso.Simulate(cfg.WithRMWType(typ), trace)
			if err != nil {
				t.Fatalf("%s [%s] materialized: %v", name, typ, err)
			}
			streamed, err := rmwtso.SimulateSource(cfg.WithRMWType(typ), src)
			if err != nil {
				t.Fatalf("%s [%s] streamed: %v", name, typ, err)
			}
			if !reflect.DeepEqual(materialized, streamed) {
				t.Errorf("%s [%s]: streamed result differs from materialized result\nmaterialized: %v\nstreamed:     %v",
					name, typ, materialized, streamed)
			}
		}
	}
}
