package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// UnitID is the stable identifier of one sweep unit: a short prefix of
// the unit's content-addressed cache-key digest (simcache key material),
// so the same (config, benchmark, seed, scale, RMW type) has the same ID
// on every machine, at every shard count, in every process. Unit IDs are
// how shards address work and how merged artifacts reassemble a sweep.
type UnitID string

// Unit is one addressable work unit of a sweep plan: one benchmark
// workload simulated under one RMW atomicity type with one seed and one
// architectural configuration.
type Unit struct {
	// ID is the unit's stable identity.
	ID UnitID `json:"id"`
	// Trace is the workload trace name (including any replacement-variant
	// suffix), Benchmark the underlying profile name and Variant the
	// C/C++11 replacement variant.
	Trace     string      `json:"trace"`
	Benchmark string      `json:"benchmark"`
	Variant   Replacement `json:"variant"`
	// Type is the RMW atomicity type of the run.
	Type AtomicityType `json:"type"`
	// Seed and Scale are the workload generation parameters (Scale
	// normalized like the cache keys: non-positive means 1).
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Key is the full content-addressed cache key the ID derives from;
	// a cached run and a plan unit with equal keys are the same work.
	Key CacheKey `json:"key"`

	// group indexes the plan's source group (one workload source per
	// (spec, seed)); units of a group share one trace source at run time.
	group int
}

// planGroup is the set of plan units that share one workload source.
type planGroup struct {
	spec BenchmarkSpec
	seed int64
	// src is the group's lazy workload source; its Stream returns fresh
	// iterators, so the group's units may run concurrently from it.
	src   TraceSource
	units []int // indexes into Plan.units, in plan order
}

// Plan is a deterministic, ordered enumeration of every unit of a sweep:
// the benchmark × RMW type × seed grid under one architectural
// configuration, with stable content-addressed unit IDs. A plan is pure
// metadata — building one generates no trace operations and runs no
// simulation — so every process of a sharded sweep can rebuild the
// identical plan from the same Options and agree on unit identities,
// which the plan fingerprint certifies.
//
// A plan is immutable: nothing writes to it after BuildPlanSeeds
// returns, and each unit run streams fresh iterators from its group's
// source. Any number of jobs may therefore run one plan concurrently, as
// the HTTP service's jobs of one sweep do.
type Plan struct {
	opts   Options
	units  []Unit
	groups []planGroup
	byID   map[UnitID]int // unit ID -> index into units
	fp     string
}

// BuildPlan enumerates the sweep plan for the options and benchmark
// specs: units are ordered spec-major, then seed, then RMW type — the
// order of RunPlan's unit results and of the runs Plan.Runs reassembles.
// Specs with no types are skipped. It fails on invalid options or
// configurations and on a unit-ID collision (which would make two
// distinct work units alias).
func BuildPlan(o Options, specs []BenchmarkSpec) (*Plan, error) {
	return BuildPlanSeeds(o, specs, o.Seed)
}

// BuildPlanSeeds is BuildPlan over an explicit seed list, for sweeps that
// rerun the grid under several workload seeds. Every (spec, seed) pair
// becomes one source group; group identity — and thus the report's
// run-level identity — includes the seed (BenchmarkRun.Seed), so
// multi-seed plans reassemble into one run per (spec, seed) without
// name collisions.
//
// A scale under which some spec's scaled iteration count exceeds the
// configuration's MaxCycles is rejected: every episode retires at least
// one store, so each iteration costs each core at least one cycle, and such
// a run could only end at the cycle limit.
func BuildPlanSeeds(o Options, specs []BenchmarkSpec, seeds ...int64) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		seeds = []int64{o.Seed}
	}
	base := o.BaseConfig()
	// Each RMW type's configuration is validated and digested once per
	// build, and the keys of its units share the digest string. The memo
	// holds the three types on the stack.
	type typeDigest struct {
		typ    AtomicityType
		digest string
	}
	digests := make([]typeDigest, 0, 3)
	digestOf := func(cfg SimConfig) (string, error) {
		for _, d := range digests {
			if d.typ == cfg.RMWType {
				return d.digest, nil
			}
		}
		// Validate before digesting, exactly like the cache paths: an
		// invalid configuration must never mint a unit identity.
		if err := cfg.Validate(); err != nil {
			return "", err
		}
		digests = append(digests, typeDigest{cfg.RMWType, cfg.Digest()})
		return digests[len(digests)-1].digest, nil
	}
	p := &Plan{opts: o, byID: map[UnitID]int{}}
	byID := p.byID
	// The fingerprint hashes every unit's canonical key, a line each, in
	// plan order. Each key is serialized once, into line, which both the
	// unit ID and the fingerprint read; line is reused for every unit.
	fp := sha256.New()
	fmt.Fprintf(fp, "rmwtso-plan/v%d\n", ShardSchemaVersion)
	var line []byte
	for _, spec := range specs {
		if len(spec.Types) == 0 {
			continue
		}
		// Computed in floating point: a huge scale overflows int.
		if iters := float64(spec.Profile.Iterations) * o.Scale; iters > float64(base.MaxCycles) {
			return nil, fmt.Errorf("rmwtso: %s at scale %g needs %.0f iterations, more than the %d-cycle limit allows",
				spec.Profile.Name, o.Scale, iters, base.MaxCycles)
		}
		for _, seed := range seeds {
			gen := workload.Generator{Cores: base.Cores, Seed: seed, Replacement: spec.Variant}
			src, err := gen.Source(o.ScaledProfile(spec.Profile))
			if err != nil {
				return nil, err
			}
			group := planGroup{spec: spec, seed: seed, src: src}
			for _, typ := range spec.Types {
				cfg := base.WithRMWType(typ)
				digest, err := digestOf(cfg)
				if err != nil {
					return nil, err
				}
				key := simcache.SimKeyOf(cfg, digest, src, seed, o.Scale)
				line = simcache.AppendCanonical(line[:0], key)
				id := UnitID(simcache.UnitIDOf(line))
				line = append(line, '\n')
				fp.Write(line)
				if prev, dup := byID[id]; dup {
					return nil, fmt.Errorf("rmwtso: unit ID %s collides between %s/%s and %s/%s",
						id, p.units[prev].Trace, p.units[prev].Type, src.Name(), typ)
				}
				byID[id] = len(p.units)
				group.units = append(group.units, len(p.units))
				p.units = append(p.units, Unit{
					ID:        id,
					Trace:     src.Name(),
					Benchmark: spec.Profile.Name,
					Variant:   spec.Variant,
					Type:      typ,
					Seed:      seed,
					Scale:     key.Scale,
					Key:       key,
					group:     len(p.groups),
				})
			}
			p.groups = append(p.groups, group)
		}
	}

	p.fp = hex.EncodeToString(fp.Sum(nil))
	return p, nil
}

// DefaultPlan enumerates the paper's full simulation sweep — the seven
// Table 3 benchmarks plus the wsq-mst C/C++11 replacement variants, each
// under its sound RMW types — for the options.
func DefaultPlan(o Options) (*Plan, error) {
	return BuildPlan(o, append(experiments.Table3Specs(), experiments.Cpp11Specs()...))
}

// DefaultPlanSeeds is DefaultPlan over an explicit seed list: the full
// sweep grid rerun under each workload seed.
func DefaultPlanSeeds(o Options, seeds ...int64) (*Plan, error) {
	return BuildPlanSeeds(o, append(experiments.Table3Specs(), experiments.Cpp11Specs()...), seeds...)
}

// SweepSpec shapes a sweep the way the experiments binary's flags do: a
// preset plus overrides. The binary fills one from -quick, -cores,
// -scale, -seed and -seeds, and the HTTP service decodes one from a plan
// job's body, so the same spec builds the same plan, with the same unit
// identities, on either surface.
type SweepSpec struct {
	// Preset is "default" (paper-scale) or "quick"; "" means default.
	Preset string `json:"preset,omitempty"`
	// Cores, Scale and Seed override the preset when positive / non-zero.
	Cores int     `json:"cores,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Seeds reruns the sweep under this many consecutive seeds, starting
	// at the base seed; 0 and 1 mean the base seed alone.
	Seeds int `json:"seeds,omitempty"`
}

// Options resolves the spec to the sweep's options and its seed list.
// It fails on an unknown preset and on a negative core count, scale or
// seed count.
func (s SweepSpec) Options() (Options, []int64, error) {
	var opts Options
	switch s.Preset {
	case "", "default":
		opts = experiments.DefaultOptions()
	case "quick":
		opts = experiments.QuickOptions()
	default:
		return opts, nil, fmt.Errorf("unknown plan preset %q (want default or quick)", s.Preset)
	}
	if s.Cores < 0 {
		return opts, nil, fmt.Errorf("plan cores must be positive, got %d", s.Cores)
	}
	if s.Scale < 0 {
		return opts, nil, fmt.Errorf("plan scale must be positive, got %g", s.Scale)
	}
	if s.Seeds < 0 {
		return opts, nil, fmt.Errorf("plan seeds must be positive, got %d", s.Seeds)
	}
	if s.Cores > 0 {
		opts.Cores = s.Cores
	}
	if s.Scale > 0 {
		opts.Scale = s.Scale
	}
	if s.Seed != 0 {
		opts.Seed = s.Seed
	}
	seeds := []int64{opts.Seed}
	for n := int64(1); n < int64(s.Seeds); n++ {
		seeds = append(seeds, opts.Seed+n)
	}
	return opts, seeds, nil
}

// Units returns the plan's units in plan order.
func (p *Plan) Units() []Unit { return append([]Unit(nil), p.units...) }

// Len returns the number of units in the plan.
func (p *Plan) Len() int { return len(p.units) }

// Options returns the options the plan was built from.
func (p *Plan) Options() Options { return p.opts }

// Seeds returns the distinct workload seeds of the plan's groups, in
// first-appearance order.
func (p *Plan) Seeds() []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, g := range p.groups {
		if !seen[g.seed] {
			seen[g.seed] = true
			out = append(out, g.seed)
		}
	}
	return out
}

// Fingerprint returns the hex digest of the plan's full unit enumeration
// (every unit's canonical cache key, in order). Two plans with equal
// fingerprints describe the same work; shard artifacts embed it so a
// merge cannot mix shards of different sweeps.
func (p *Plan) Fingerprint() string { return p.fp }

// Unit returns the plan unit with the given ID.
func (p *Plan) Unit(id UnitID) (Unit, bool) {
	i, ok := p.byID[id]
	if !ok {
		return Unit{}, false
	}
	return p.units[i], true
}

// Select returns the units a shard covers, in plan order.
func (p *Plan) Select(s Shard) []Unit {
	var out []Unit
	for pos, u := range p.units {
		if s.Count == 0 || pos%s.Count == s.Index {
			out = append(out, u)
		}
	}
	return out
}

// Shard selects a subset of a plan's units for one process of a sweep
// split across processes or machines. The zero value selects the whole
// plan. With Count > 0, units are dealt round-robin by plan position:
// shard i of n covers the units at positions ≡ i (mod n), so the n
// shards of a plan partition it exactly and adjacent (cheap and
// expensive) units spread across the processes.
type Shard struct {
	// Index and Count select round-robin shard Index of Count.
	Index int `json:"index"`
	Count int `json:"count"`
}

// FullShard returns the selector that covers the whole plan.
func FullShard() Shard { return Shard{} }

// Validate rejects malformed selectors: a negative count, or an index
// outside [0, Count) when Count is set.
func (s Shard) Validate() error {
	switch {
	case s.Count < 0:
		return fmt.Errorf("rmwtso: negative shard count %d", s.Count)
	case s.Count == 0 && s.Index != 0:
		return fmt.Errorf("rmwtso: shard index %d without a shard count", s.Index)
	case s.Count > 0 && (s.Index < 0 || s.Index >= s.Count):
		return fmt.Errorf("rmwtso: shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// String renders the selector ("2/4" or "all").
func (s Shard) String() string {
	if s.Count > 0 {
		return fmt.Sprintf("%d/%d", s.Index, s.Count)
	}
	return "all"
}

// ParseShard parses an "i/n" selector ("0/3" is the first of three
// shards), as taken by the binaries' -shard flag.
func ParseShard(spec string) (Shard, error) {
	idx, cnt, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("rmwtso: shard %q is not of the form i/n", spec)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return Shard{}, fmt.Errorf("rmwtso: shard index %q: %w", idx, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(cnt))
	if err != nil {
		return Shard{}, fmt.Errorf("rmwtso: shard count %q: %w", cnt, err)
	}
	s := Shard{Index: i, Count: n}
	if n == 0 {
		return Shard{}, fmt.Errorf("rmwtso: shard count must be positive in %q", spec)
	}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// deadlockError reports a benchmark run that wedged; experiment sweeps
// treat deadlock as an error because only the Fig. 10 demo expects it.
func deadlockError(name string, typ AtomicityType) error {
	return fmt.Errorf("rmwtso: %s under %s deadlocked", name, typ)
}

// runUnit executes one plan unit on its group's source through the
// engine's result cache (simulateCached), after consulting the engine's
// fault injector.
func (e *Engine) runUnit(plan *Plan, u Unit, m *metrics) (UnitResult, error) {
	if e.opts.faults != nil {
		if err := e.opts.faults(u); err != nil {
			return UnitResult{}, err
		}
	}
	cfg := plan.opts.BaseConfig().WithRMWType(u.Type)
	res, hit, err := simulateCached(e.opts.cache, u.Key, cfg, plan.groups[u.group].src)
	if err != nil {
		return UnitResult{}, err
	}
	if res.Deadlocked {
		return UnitResult{}, deadlockError(u.Trace, u.Type)
	}
	m.unitDone(hit)
	return UnitResult{Unit: u.ID, Trace: u.Trace, Type: u.Type, Seed: u.Seed, CacheHit: hit, Result: res}, nil
}

// shardResult frames the unit results of a shard of the plan as a shard
// artifact.
func (p *Plan) shardResult(s Shard, units []UnitResult) *ShardResult {
	return &ShardResult{Plan: p.fp, Index: s.Index, Count: s.Count, Units: units}
}

// listedUnitsMax bounds how many unit IDs a merge-path error message
// spells out; the remainder is summarized as a count, so a merge of a
// huge plan missing hundreds of units still produces a readable error.
const listedUnitsMax = 8

// boundedList renders the items sorted, capped at max entries with the
// remainder summarized ("a, b, …, h and 12 more"). Sorting makes the
// message deterministic regardless of plan or arrival order; merge-path
// errors rely on both properties.
func boundedList(items []string, max int) string {
	sorted := append([]string(nil), items...)
	sort.Strings(sorted)
	if len(sorted) <= max {
		return strings.Join(sorted, ", ")
	}
	return fmt.Sprintf("%s and %d more", strings.Join(sorted[:max], ", "), len(sorted)-max)
}

// unitDesc renders a unit's identity for error messages.
func unitDesc(id UnitID, trace string, typ AtomicityType) string {
	return fmt.Sprintf("%s (%s under %s)", id, trace, typ)
}

// checkRun returns an error when r is not a result of unit u's run: when
// it is missing, or holds a run of another trace, RMW type or core count.
// Assembled, such a result would stand in for u and render a table from
// the wrong run.
func checkRun(u Unit, r *SimResult) error {
	switch {
	case r == nil:
		return fmt.Errorf("rmwtso: unit %s has no result", unitDesc(u.ID, u.Trace, u.Type))
	case r.Workload != u.Trace || r.RMWType != u.Type || len(r.PerCore) != u.Key.Cores:
		return fmt.Errorf("rmwtso: unit %s holds a run of %q under %s on %d cores, want %d cores",
			unitDesc(u.ID, u.Trace, u.Type), r.Workload, r.RMWType, len(r.PerCore), u.Key.Cores)
	}
	return nil
}

// indexResults validates unit results against the plan — an alien unit, a
// duplicated unit (all duplicates listed, sorted and bounded), or a unit
// without its own run's result (checkRun) is an error — and indexes them
// by unit ID.
func (p *Plan) indexResults(units []UnitResult) (map[UnitID]*SimResult, error) {
	byID := make(map[UnitID]*SimResult, len(units))
	var dups []string
	dupSeen := map[UnitID]bool{}
	for _, ur := range units {
		u, ok := p.Unit(ur.Unit)
		if !ok {
			return nil, fmt.Errorf("rmwtso: unit %s is not in the plan", unitDesc(ur.Unit, ur.Trace, ur.Type))
		}
		if _, dup := byID[ur.Unit]; dup {
			if !dupSeen[ur.Unit] {
				dupSeen[ur.Unit] = true
				dups = append(dups, unitDesc(ur.Unit, ur.Trace, ur.Type))
			}
			continue
		}
		if err := checkRun(u, ur.Result); err != nil {
			return nil, err
		}
		byID[ur.Unit] = ur.Result
	}
	if len(dups) > 0 {
		return nil, fmt.Errorf("rmwtso: %d of %d plan units appear twice or more: %s",
			len(dups), len(p.units), boundedList(dups, listedUnitsMax))
	}
	return byID, nil
}

// missingUnits returns the descriptions and IDs of the plan units absent
// from the index, each list sorted by unit ID.
func (p *Plan) missingUnits(byID map[UnitID]*SimResult) (descs []string, ids []UnitID) {
	for _, u := range p.units {
		if _, ok := byID[u.ID]; !ok {
			descs = append(descs, unitDesc(u.ID, u.Trace, u.Type))
			ids = append(ids, u.ID)
		}
	}
	sort.Strings(descs)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return descs, ids
}

// groupRuns reassembles one BenchmarkRun per source group whose units are
// all present in the index, in plan order. The run carries its group's
// seed, so multi-seed plans yield one distinguishable run per (spec,
// seed) pair instead of name-keyed collisions.
func (p *Plan) groupRuns(byID map[UnitID]*SimResult) []*BenchmarkRun {
	var runs []*BenchmarkRun
	for _, g := range p.groups {
		run := &BenchmarkRun{
			Profile: g.spec.Profile,
			Variant: g.spec.Variant,
			Seed:    g.seed,
			ByType:  map[AtomicityType]*SimResult{},
		}
		complete := true
		for _, ui := range g.units {
			u := p.units[ui]
			res, ok := byID[u.ID]
			if !ok {
				complete = false
				break
			}
			run.Name = u.Trace
			run.ByType[u.Type] = res
		}
		if complete {
			runs = append(runs, run)
		}
	}
	return runs
}

// Runs reassembles benchmark runs from unit results, in plan order: one
// BenchmarkRun per (spec, seed) source group with one ByType entry per
// unit. It requires exactly the plan's unit set — a missing, duplicated
// or alien unit is an error, with the offending unit IDs listed sorted
// and bounded — so a partial shard cannot silently masquerade as a
// finished sweep; merge shard artifacts with MergeShards first.
func (p *Plan) Runs(units []UnitResult) ([]*BenchmarkRun, error) {
	byID, err := p.indexComplete(units)
	if err != nil {
		return nil, err
	}
	return p.groupRuns(byID), nil
}

// indexComplete is indexResults for a set that must hold every plan unit:
// a missing unit is an error too, with the missing units listed sorted
// and bounded.
func (p *Plan) indexComplete(units []UnitResult) (map[UnitID]*SimResult, error) {
	byID, err := p.indexResults(units)
	if err != nil {
		return nil, err
	}
	if missing, _ := p.missingUnits(byID); len(missing) > 0 {
		return nil, fmt.Errorf("rmwtso: %d of %d plan units missing: %s",
			len(missing), len(p.units), boundedList(missing, listedUnitsMax))
	}
	return byID, nil
}

// RunsPartial is Runs for a sweep that legitimately ended incomplete — a
// run with dead-lettered units. It reassembles the benchmark
// runs of every source group whose units all finished and reports the
// IDs of the absent units (sorted), instead of failing on them; alien,
// duplicated and result-less units are still errors. Callers render the
// partial report alongside the missing list so a reader can never
// mistake it for a finished sweep.
func (p *Plan) RunsPartial(units []UnitResult) ([]*BenchmarkRun, []UnitID, error) {
	byID, err := p.indexResults(units)
	if err != nil {
		return nil, nil, err
	}
	_, missing := p.missingUnits(byID)
	return p.groupRuns(byID), missing, nil
}

// Report builds the evaluation report of a shard result of the plan: the
// full report when the shard holds every unit (Runs), or the partial
// report of the complete source groups when it lists dead letters
// (RunsPartial). The report is built from the plan's own options and
// carries the shard's coordination section, so a partial report names
// the units its tables lack.
func (p *Plan) Report(sr *ShardResult) (*experiments.Report, error) {
	var runs []*BenchmarkRun
	var err error
	if sr.Coordination != nil && len(sr.Coordination.DeadLetters) > 0 {
		runs, _, err = p.RunsPartial(sr.Units)
	} else {
		runs, err = p.Runs(sr.Units)
	}
	if err != nil {
		return nil, err
	}
	r, err := experiments.BuildReport(p.opts, runs)
	if err != nil {
		return nil, err
	}
	r.Coordination = sr.Coordination
	return r, nil
}
