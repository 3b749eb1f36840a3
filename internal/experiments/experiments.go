// Package experiments regenerates every table and figure of the paper's
// evaluation:
//
//   - Table 1: which RMW atomicity type supports which synchronization
//     idiom (model checking of the litmus suite plus the C/C++11 mapping
//     validation);
//   - Table 2: the architectural parameters of the simulated platform;
//   - Table 3: benchmark characteristics (RMW density, unique RMWs,
//     write-buffer drains for type-2/3, broadcast rate);
//   - Table 4: the C/C++11-to-x86 mappings and their soundness per RMW
//     type;
//   - Fig. 11(a): the per-RMW cost split into write-buffer and Ra/Wa
//     components for type-1/2/3;
//   - Fig. 11(b): the execution-time overhead of RMWs per benchmark and
//     RMW type;
//   - the headline summary (cost reductions and overall speedups).
//
// Absolute cycle counts differ from the paper (the substrate is the
// simulator of internal/sim, not the authors' GEM5 testbed), but the shapes
// the paper reports -- who wins, by roughly what factor, and where the
// benefits concentrate -- are reproduced. EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Cores is the number of simulated cores (the paper uses 32).
	Cores int
	// Scale multiplies each benchmark's iteration count; values below 1
	// shrink runs for quick smoke tests and benchmarks.
	Scale float64
	// Seed drives the workload generators.
	Seed int64
	// Config overrides the base architectural parameters; the RMW type is
	// set per run by the harness.
	Config *sim.Config
	// EnumWorkers is how many goroutines each litmus verdict and mapping
	// validation of the semantics experiments (Tables 1 and 4) fans its
	// candidate enumeration across. The default, 0, picks per program via
	// the candidate-count heuristic: GOMAXPROCS for IRIW-class programs,
	// 1 for small ones. The verdicts are identical at any setting.
	EnumWorkers int
	// Cache, when non-nil, is consulted before every simulator run and
	// stores the result of every fresh one: a run is a pure function of
	// (config, trace, seed, scale, RMW type), so hits replay the stored
	// sim.Result instead of simulating. Cached and fresh runs produce
	// identical tables.
	Cache *simcache.Cache
	// CacheDir, when Cache is nil and CacheDir is non-empty, enables
	// caching through a disk-backed cache rooted at this directory
	// (opened per harness call; the disk tier is what persists across
	// calls and processes).
	CacheDir string
}

// DefaultOptions reproduce the paper's setup (32 cores, full workloads).
func DefaultOptions() Options {
	return Options{Cores: 32, Scale: 1.0, Seed: 20130601}
}

// QuickOptions shrink the runs for tests and `go test -bench`: fewer cores
// and shorter workloads, same structure.
func QuickOptions() Options {
	return Options{Cores: 8, Scale: 0.25, Seed: 20130601}
}

// BaseConfig returns the architectural configuration the options describe
// (Table 2 plus any overrides); the RMW type is set per run by the harness.
func (o Options) BaseConfig() sim.Config {
	return o.baseConfig()
}

// baseConfig returns the architectural configuration for the options. A
// user-supplied Config with an unset (zero) RMW type is normalized to the
// default type before anything digests or validates it — the harness
// overrides the type per run anyway, and an unnormalized zero would make
// cache keys for invalid configurations collide.
func (o Options) baseConfig() sim.Config {
	var cfg sim.Config
	if o.Config != nil {
		cfg = *o.Config
	} else {
		cfg = sim.DefaultConfig()
	}
	if o.Cores > 0 {
		cfg = cfg.WithCores(o.Cores)
	}
	if cfg.RMWType == 0 {
		cfg.RMWType = sim.DefaultConfig().RMWType
	}
	return cfg
}

// Validate rejects option values that would otherwise flow as garbage
// into the workload generator, the candidate-enumeration heuristic, or —
// worst — into cache key digests: negative core counts, scale factors and
// worker counts, and an effective architectural configuration that fails
// sim.Config.Validate. Zero values stay legal (they mean "use the
// default"). Every harness entry point calls this before running.
func (o Options) Validate() error {
	switch {
	case o.Cores < 0:
		return fmt.Errorf("experiments: negative core count %d", o.Cores)
	case o.Scale < 0:
		return fmt.Errorf("experiments: negative workload scale %g", o.Scale)
	case o.EnumWorkers < 0:
		return fmt.Errorf("experiments: negative enumeration worker count %d", o.EnumWorkers)
	}
	if err := o.baseConfig().Validate(); err != nil {
		return err
	}
	return nil
}

// ResultCache resolves the options' cache: Options.Cache when set, a
// fresh disk-backed cache when only CacheDir is set, nil (caching
// disabled) otherwise.
func (o Options) ResultCache() (*simcache.Cache, error) {
	if o.Cache != nil {
		return o.Cache, nil
	}
	if o.CacheDir == "" {
		return nil, nil
	}
	return simcache.Open(simcache.WithDir(o.CacheDir))
}

// ScaledProfile returns a copy of the profile with its iteration count
// scaled by the options' Scale factor. Exported so external harnesses
// (pkg/rmwtso's parallel sweeps) apply exactly the same scaling rule.
func (o Options) ScaledProfile(p workload.Profile) workload.Profile { return o.scaled(p) }

// scaled returns a copy of the profile with its iteration count scaled.
func (o Options) scaled(p workload.Profile) workload.Profile {
	if o.Scale > 0 && o.Scale != 1.0 {
		n := int(float64(p.Iterations) * o.Scale)
		if n < 8 {
			n = 8
		}
		p.Iterations = n
	}
	return p
}

// BenchmarkRun holds the three per-type simulation results for one
// benchmark, the unit of data behind Table 3 and Fig. 11.
type BenchmarkRun struct {
	Profile workload.Profile
	// Variant is the wsq replacement variant (none for the Table 3 set).
	Variant workload.Replacement
	// Name is the trace name ("bayes", "wsq-mst_rr", ...).
	Name string
	// Seed is the workload seed the run was generated with. The trace
	// name does not embed the seed, so Seed — not Name — disambiguates
	// the runs of a multi-seed sweep; report builders group by
	// (Name, Variant, Seed).
	Seed int64
	// ByType maps each RMW atomicity type to its simulation result.
	ByType map[core.AtomicityType]*sim.Result
}

// Result returns the run for one RMW type.
func (b *BenchmarkRun) Result(t core.AtomicityType) *sim.Result { return b.ByType[t] }

// BenchmarkSpec describes one benchmark of the evaluation: the profile,
// its replacement variant and the RMW types it runs under. The spec
// lists below are the single source of truth for every sweep: the
// execution engine (internal/engine) enumerates them into plans; this
// package only describes the grid and renders its results.
type BenchmarkSpec struct {
	Profile workload.Profile
	Variant workload.Replacement
	Types   []core.AtomicityType
}

// Table3Specs lists the seven Table 3 benchmarks, each run under all
// three RMW types.
func Table3Specs() []BenchmarkSpec {
	var out []BenchmarkSpec
	for _, p := range workload.Table3Profiles() {
		out = append(out, BenchmarkSpec{Profile: p, Variant: workload.NoReplacement, Types: core.AllTypes()})
	}
	return out
}

// Cpp11Specs lists the wsq-mst C/C++11 variants: write replacement
// (wsq-mst_wr) under type-1 and type-2, and read replacement
// (wsq-mst_rr) under all three types -- type-3 RMWs cannot be used for
// write replacement (§2.5), so that combination is intentionally absent.
func Cpp11Specs() []BenchmarkSpec {
	wsq := workload.WSQProfile()
	return []BenchmarkSpec{
		{Profile: wsq, Variant: workload.WriteReplacement, Types: []core.AtomicityType{core.Type1, core.Type2}},
		{Profile: wsq, Variant: workload.ReadReplacement, Types: core.AllTypes()},
	}
}
