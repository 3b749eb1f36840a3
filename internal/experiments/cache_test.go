package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestOptionsValidate covers the garbage inputs the harness must reject
// before they reach the generator or a cache key. The engine's sweep
// entry point is pinned to reject the same inputs in
// internal/engine's TestRunBenchmarksValidates.
func TestOptionsValidate(t *testing.T) {
	cases := map[string]Options{
		"negative cores":   {Cores: -1, Scale: 1},
		"negative scale":   {Cores: 4, Scale: -0.5},
		"NaN scale":        {Cores: 4, Scale: math.NaN()},
		"+Inf scale":       {Cores: 4, Scale: math.Inf(1)},
		"-Inf scale":       {Cores: 4, Scale: math.Inf(-1)},
		"zero-core config": {Config: &sim.Config{}},
	}
	for name, o := range cases {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options (all defaults) rejected: %v", err)
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

// TestBaseConfigNormalizesRMWType pins the normalization that keeps cache
// keys for "config with unset RMW type" from colliding: the zero value
// becomes the default type before anything digests it.
func TestBaseConfigNormalizesRMWType(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.RMWType = 0
	o := Options{Cores: 4, Scale: 1, Config: &cfg}
	got := o.BaseConfig()
	if got.RMWType != sim.DefaultConfig().RMWType {
		t.Fatalf("BaseConfig RMWType = %v, want normalized default", got.RMWType)
	}
	if got.Digest() == "" || got.Digest() != o.BaseConfig().Digest() {
		t.Fatalf("normalized digest not stable")
	}
}
