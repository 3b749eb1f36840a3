// Package workload generates the memory-operation traces that drive the
// simulator. The paper evaluates on SPLASH-2, PARSEC and STAMP benchmarks
// plus a lock-free work-stealing program; those binaries (and the GEM5 x86
// frontend that would execute them) are not available here, so each
// benchmark is replaced by a synthetic profile calibrated to the
// characteristics the paper reports in Table 3 -- RMW density, fraction of
// unique RMW addresses and synchronization structure -- together with
// faithful trace-level models of the synchronization constructs that
// actually exercise RMWs: test-and-set and ticket spinlocks, a Chase-Lev
// work-stealing deque (wsq-mst) and a TL2-style software transactional
// memory (bayes, genome). See DESIGN.md for the substitution argument.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// Pattern names the synchronization structure a profile uses.
type Pattern int

const (
	// LockBased models SPLASH-2/PARSEC style code: RMWs come from
	// lock/unlock pairs around short critical sections.
	LockBased Pattern = iota
	// Transactional models STAMP/TL2 style code: RMWs lock written
	// locations at commit time and a commit counter.
	Transactional
	// WorkStealing models the Chase-Lev deque of wsq-mst: owner pops use
	// Dekker-like synchronization, steals use CAS.
	WorkStealing
)

// String renders the pattern name.
func (p Pattern) String() string {
	switch p {
	case LockBased:
		return "lock-based"
	case Transactional:
		return "transactional"
	case WorkStealing:
		return "work-stealing"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Profile describes one benchmark: the paper's reported characteristics
// (used for reporting and calibration checks) and the parameters of the
// synthetic trace generator.
type Profile struct {
	// Name and Suite identify the benchmark (Table 3's first two columns).
	Name  string
	Suite string
	// ProblemSize is the input the paper used, for documentation.
	ProblemSize string
	// Pattern is the synchronization structure.
	Pattern Pattern

	// PaperRMWsPer1000 and PaperUniquePct are the values the paper reports
	// in Table 3 (RMWs per 1000 memory operations; percentage of RMWs to
	// unique addresses). The generator is calibrated against them.
	PaperRMWsPer1000 float64
	PaperUniquePct   float64

	// Iterations is the number of synchronization episodes each core
	// executes (lock acquisitions, transactions, or deque operations).
	Iterations int
	// CriticalSectionOps is the number of shared-data accesses per episode.
	CriticalSectionOps int
	// PrivateOpsPerEpisode is the number of private (core-local) memory
	// operations between episodes; together with CriticalSectionOps it sets
	// the RMW density.
	PrivateOpsPerEpisode int
	// ThinkCycles is the non-memory work between episodes.
	ThinkCycles uint64
	// SharedLockLines is the size of the pool of synchronization variables
	// (lock words, deque anchors, transaction locks); a larger pool raises
	// the unique-RMW fraction.
	SharedLockLines int
	// SharedDataLines is the pool of shared data accessed inside critical
	// sections or transactions.
	SharedDataLines int
	// WriteFraction is the fraction of non-RMW memory operations that are
	// writes.
	WriteFraction float64
	// LockAffinity is the probability that a core picks its
	// synchronization variable from its own partition of the pool rather
	// than uniformly; real programs partition work, so most acquisitions
	// are uncontended while a fraction still migrates between cores.
	LockAffinity float64
	// ClockLines shards the transactional global version clock (the GV5/6
	// style optimizations of TL2); only used by Transactional profiles.
	// Zero means a single global clock line.
	ClockLines int
}

// Validate checks the profile's generator parameters.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile without a name")
	case p.Iterations <= 0:
		return fmt.Errorf("workload: profile %q: non-positive iterations", p.Name)
	case p.SharedLockLines <= 0:
		return fmt.Errorf("workload: profile %q: no synchronization variables", p.Name)
	case p.SharedDataLines <= 0:
		return fmt.Errorf("workload: profile %q: no shared data", p.Name)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("workload: profile %q: write fraction %.2f out of range", p.Name, p.WriteFraction)
	case p.LockAffinity < 0 || p.LockAffinity > 1:
		return fmt.Errorf("workload: profile %q: lock affinity %.2f out of range", p.Name, p.LockAffinity)
	case p.ClockLines < 0:
		return fmt.Errorf("workload: profile %q: negative clock shard count", p.Name)
	}
	return nil
}

// Digest returns a stable content digest of the profile: the hex-encoded
// SHA-256 of an explicit name=value serialization of every field. Result
// caches fold it into their keys so two distinct profiles sharing a name
// (for example a hand-tuned copy of a Table 3 benchmark) can never alias
// to the same cached run. Each field is written by name in a fixed order;
// a new Profile field must be added here (the per-field sensitivity test
// in profile_test.go fails loudly until it is).
func (p Profile) Digest() string {
	var buf [512]byte
	// One "name=value" line per field. Each line begins with the newline
	// that ends the one before it; the last is ended before hashing.
	b := append(buf[:0], "workload.Profile/v1"...)
	b = append(append(b, "\nName="...), p.Name...)
	b = append(append(b, "\nSuite="...), p.Suite...)
	b = append(append(b, "\nProblemSize="...), p.ProblemSize...)
	b = strconv.AppendInt(append(b, "\nPattern="...), int64(p.Pattern), 10)
	b = strconv.AppendFloat(append(b, "\nPaperRMWsPer1000="...), p.PaperRMWsPer1000, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, "\nPaperUniquePct="...), p.PaperUniquePct, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "\nIterations="...), int64(p.Iterations), 10)
	b = strconv.AppendInt(append(b, "\nCriticalSectionOps="...), int64(p.CriticalSectionOps), 10)
	b = strconv.AppendInt(append(b, "\nPrivateOpsPerEpisode="...), int64(p.PrivateOpsPerEpisode), 10)
	b = strconv.AppendUint(append(b, "\nThinkCycles="...), p.ThinkCycles, 10)
	b = strconv.AppendInt(append(b, "\nSharedLockLines="...), int64(p.SharedLockLines), 10)
	b = strconv.AppendInt(append(b, "\nSharedDataLines="...), int64(p.SharedDataLines), 10)
	b = strconv.AppendFloat(append(b, "\nWriteFraction="...), p.WriteFraction, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, "\nLockAffinity="...), p.LockAffinity, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "\nClockLines="...), int64(p.ClockLines), 10)
	sum := sha256.Sum256(append(b, '\n'))
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// Table3Profiles returns the benchmark set of the paper's Table 3, in table
// order. The generator parameters are chosen so the measured RMW density
// and unique-RMW fraction land close to the paper's reported values; the
// calibration is checked by the workload tests and reported by the Table 3
// experiment.
func Table3Profiles() []Profile {
	return []Profile{
		{
			Name: "radiosity", Suite: "SPLASH-2", ProblemSize: "room", Pattern: LockBased,
			PaperRMWsPer1000: 15.56, PaperUniquePct: 0.28,
			Iterations: 320, CriticalSectionOps: 6, PrivateOpsPerEpisode: 54,
			ThinkCycles: 1000, SharedLockLines: 64, SharedDataLines: 256, WriteFraction: 0.3,
			LockAffinity: 0.85,
		},
		{
			Name: "raytrace", Suite: "SPLASH-2", ProblemSize: "car", Pattern: LockBased,
			PaperRMWsPer1000: 13.83, PaperUniquePct: 0.02,
			Iterations: 320, CriticalSectionOps: 4, PrivateOpsPerEpisode: 64,
			ThinkCycles: 2600, SharedLockLines: 48, SharedDataLines: 128, WriteFraction: 0.25,
			LockAffinity: 0.9,
		},
		{
			Name: "fluidanimate", Suite: "PARSEC", ProblemSize: "simmedium", Pattern: LockBased,
			PaperRMWsPer1000: 17.43, PaperUniquePct: 0.46,
			Iterations: 320, CriticalSectionOps: 5, PrivateOpsPerEpisode: 48,
			ThinkCycles: 900, SharedLockLines: 64, SharedDataLines: 256, WriteFraction: 0.35,
			LockAffinity: 0.85,
		},
		{
			Name: "dedup", Suite: "PARSEC", ProblemSize: "simmedium", Pattern: LockBased,
			PaperRMWsPer1000: 8.10, PaperUniquePct: 3.31,
			Iterations: 200, CriticalSectionOps: 6, PrivateOpsPerEpisode: 113,
			ThinkCycles: 2600, SharedLockLines: 160, SharedDataLines: 512, WriteFraction: 0.3,
			LockAffinity: 0.85,
		},
		{
			Name: "bayes", Suite: "STAMP", ProblemSize: "bayes+", Pattern: Transactional,
			PaperRMWsPer1000: 34.15, PaperUniquePct: 0.91,
			Iterations: 280, CriticalSectionOps: 6, PrivateOpsPerEpisode: 62,
			ThinkCycles: 400, SharedLockLines: 96, SharedDataLines: 512, WriteFraction: 0.4,
			LockAffinity: 0.8, ClockLines: 8,
		},
		{
			Name: "genome", Suite: "STAMP", ProblemSize: "genome+", Pattern: Transactional,
			PaperRMWsPer1000: 6.19, PaperUniquePct: 0.64,
			Iterations: 80, CriticalSectionOps: 4, PrivateOpsPerEpisode: 394,
			ThinkCycles: 1400, SharedLockLines: 48, SharedDataLines: 512, WriteFraction: 0.35,
			LockAffinity: 0.8, ClockLines: 8,
		},
		{
			Name: "wsq-mst", Suite: "Lockfree", ProblemSize: "10000 nodes", Pattern: WorkStealing,
			PaperRMWsPer1000: 23.41, PaperUniquePct: 3.80,
			Iterations: 360, CriticalSectionOps: 3, PrivateOpsPerEpisode: 53,
			ThinkCycles: 220, SharedLockLines: 256, SharedDataLines: 512, WriteFraction: 0.35,
			LockAffinity: 0.9,
		},
	}
}

// FindProfile returns the Table 3 profile with the given name, or an error.
func FindProfile(name string) (Profile, error) {
	for _, p := range Table3Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ProfileNames returns the Table 3 benchmark names in table order.
func ProfileNames() []string {
	profiles := Table3Profiles()
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}
