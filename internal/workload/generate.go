package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Replacement selects which half of the Dekker-like synchronization in the
// work-stealing queue is replaced by an RMW, mirroring the paper's C/C++11
// experiment (wsq-mst_rr and wsq-mst_wr).
type Replacement int

const (
	// NoReplacement uses an RMW only where the original algorithm has one
	// (the steal CAS and node-claim CAS).
	NoReplacement Replacement = iota
	// ReadReplacement turns the pop's SC-atomic-read of top into an RMW
	// (lock xadd(0)), the paper's wsq-mst_rr.
	ReadReplacement
	// WriteReplacement turns the pop's SC-atomic-write of bottom into an
	// RMW (lock xchg), the paper's wsq-mst_wr.
	WriteReplacement
)

// String renders the replacement variant.
func (r Replacement) String() string {
	switch r {
	case NoReplacement:
		return "none"
	case ReadReplacement:
		return "read-replacement"
	case WriteReplacement:
		return "write-replacement"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Memory layout of the synthetic address space (byte addresses; the
// simulator converts to 64-byte lines). Each region is padded so distinct
// logical objects live on distinct lines.
const (
	lineBytes        = 64
	lockRegionBase   = 0x1000_0000 // synchronization variables (lock words, deque tops, STM locks)
	sharedRegionBase = 0x2000_0000 // shared data
	dequeRegionBase  = 0x3000_0000 // per-core deque anchors (top/bottom)
	privateBase      = 0x4000_0000 // per-core private data
	privateStride    = 0x0100_0000
)

// lockAddr returns the byte address of the i-th synchronization variable.
func lockAddr(i int) uint64 { return lockRegionBase + uint64(i)*lineBytes }

// sharedAddr returns the byte address of the i-th shared data line.
func sharedAddr(i int) uint64 { return sharedRegionBase + uint64(i)*lineBytes }

// dequeTopAddr and dequeBottomAddr return the anchors of core c's deque.
func dequeTopAddr(c int) uint64    { return dequeRegionBase + uint64(c)*4*lineBytes }
func dequeBottomAddr(c int) uint64 { return dequeRegionBase + uint64(c)*4*lineBytes + 2*lineBytes }

// privateAddr returns the byte address of core c's i-th private line.
func privateAddr(c, i int) uint64 {
	return privateBase + uint64(c)*privateStride + uint64(i)*lineBytes
}

// emitFn receives generated operations in program order, one per call
// (a variadic sink would heap-allocate a slice per op through the func
// value). It is the sink shared by the streaming and materializing
// generation paths: a core stream's refill buffer appends through it, and
// Generate drains a stream built on the same episode functions, so the two
// forms produce identical op sequences by construction.
type emitFn func(op sim.Op)

// Generator produces simulator traces from benchmark profiles, either
// fully materialized (Generate) or as lazy per-core streams (Source) that
// synthesize operations one synchronization episode at a time.
type Generator struct {
	// Cores is the number of cores to generate streams for.
	Cores int
	// Seed makes generation deterministic.
	Seed int64
	// Replacement applies to work-stealing profiles only.
	Replacement Replacement
}

// TraceName returns the name the generator gives traces of the profile:
// the profile name plus the replacement-variant suffix ("_rr"/"_wr").
func (g Generator) TraceName(p Profile) string {
	switch g.Replacement {
	case ReadReplacement:
		return p.Name + "_rr"
	case WriteReplacement:
		return p.Name + "_wr"
	default:
		return p.Name
	}
}

// episodeFunc emits the operations of one synchronization episode (one
// lock acquisition, transaction, or deque pop/execute/push round) of core
// c. Generation is deterministic in the rng, which each core stream seeds
// identically to the materializing path.
type episodeFunc func(g Generator, c int, p Profile, rng *rand.Rand, emit emitFn)

// episode returns the profile's per-episode generation function.
func (g Generator) episode(p Profile) (episodeFunc, error) {
	switch p.Pattern {
	case LockBased:
		return Generator.lockBasedEpisode, nil
	case Transactional:
		return Generator.transactionalEpisode, nil
	case WorkStealing:
		return Generator.workStealingEpisode, nil
	default:
		return nil, fmt.Errorf("workload: profile %q: unknown pattern %v", p.Name, p.Pattern)
	}
}

// validate checks the (generator, profile) pair before any generation.
func (g Generator) validate(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if g.Cores <= 0 {
		return fmt.Errorf("workload: non-positive core count %d", g.Cores)
	}
	return nil
}

// Generate builds the fully materialized trace for a profile. It is a thin
// wrapper over Source: the lazy per-core streams are drained into slices.
// Prefer passing the Source itself to the simulator when the ops need not
// be retained — the result is identical and memory stays O(episode) per
// core instead of O(trace).
func (g Generator) Generate(p Profile) (*sim.Trace, error) {
	src, err := g.Source(p)
	if err != nil {
		return nil, err
	}
	return sim.Materialize(src), nil
}

// privatePhase emits the non-shared work between synchronization episodes.
func (g Generator) privatePhase(emit emitFn, c int, p Profile, rng *rand.Rand) {
	if p.ThinkCycles > 0 {
		emit(sim.Compute(p.ThinkCycles))
	}
	for i := 0; i < p.PrivateOpsPerEpisode; i++ {
		addr := privateAddr(c, rng.Intn(64))
		if rng.Float64() < p.WriteFraction {
			emit(sim.Write(addr))
		} else {
			emit(sim.Read(addr))
		}
	}
}

// pickSync picks a synchronization variable index for core c. With
// probability LockAffinity the index comes from the core's own partition of
// the pool (real programs partition their work, so most acquisitions are
// uncontended); otherwise it is drawn uniformly, providing the cross-core
// sharing that exercises the coherence protocol.
func (g Generator) pickSync(c int, p Profile, rng *rand.Rand) int {
	pool := p.SharedLockLines
	if p.LockAffinity > 0 && rng.Float64() < p.LockAffinity && g.Cores > 0 {
		per := pool / g.Cores
		if per < 1 {
			per = 1
		}
		base := (c * per) % pool
		return (base + rng.Intn(per)) % pool
	}
	return rng.Intn(pool)
}

// sharedOps emits n accesses to the shared-data pool, writing with the
// profile's write fraction.
func (g Generator) sharedOps(emit emitFn, c int, p Profile, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		addr := sharedAddr(rng.Intn(p.SharedDataLines))
		if rng.Float64() < p.WriteFraction {
			emit(sim.Write(addr))
		} else {
			emit(sim.Read(addr))
		}
	}
}

// lockBasedEpisode models one iteration of SPLASH-2/PARSEC style code:
// private work, a couple of shared-buffer writes, then lock; critical
// section; unlock. The shared writes just before the acquire are what make
// the baseline type-1 RMW pay for a write-buffer drain, as the paper
// observes.
func (g Generator) lockBasedEpisode(c int, p Profile, rng *rand.Rand, emit emitFn) {
	g.privatePhase(emit, c, p, rng)
	// Publish a couple of results to shared memory right before the
	// acquire.
	g.sharedOps(emit, c, p, rng, 2)
	lock := lockAddr(g.pickSync(c, p, rng))
	emit(sim.RMW(lock)) // acquire (test-and-set)
	g.sharedOps(emit, c, p, rng, p.CriticalSectionOps)
	emit(sim.Write(lock)) // release
}

// transactionalEpisode models one transaction of STAMP code running on a
// TL2-style STM: a read phase, then a commit that locks each written
// location with an RMW, bumps the global version clock with an RMW, writes
// back, and releases the locks with plain stores.
func (g Generator) transactionalEpisode(c int, p Profile, rng *rand.Rand, emit emitFn) {
	// The version clock is the hot line every commit bumps. TL2's GV5/GV6
	// variants reduce clock contention; ClockLines > 1 models that by
	// sharding the clock, with each core mostly using its home shard.
	clockShards := p.ClockLines
	if clockShards <= 0 {
		clockShards = 1
	}
	clockRegion := p.SharedLockLines // clock shards live after the STM locks
	g.privatePhase(emit, c, p, rng)
	// Read set.
	g.sharedOps(emit, c, p, rng, p.CriticalSectionOps)
	// Write set: lock each written location (CAS on its STM lock), then
	// bump the version clock, write back, release. The short compute
	// gaps model the per-location and read-set validation TL2 performs
	// between the lock acquisitions; they also give the lock RMWs'
	// writes time to leave the write buffer, which is why the paper
	// measures almost no bloom-filter reverts for the STAMP codes.
	writeSet := 1 + rng.Intn(2)
	var locks [2]uint64 // a write set holds one or two locations
	for w := 0; w < writeSet; w++ {
		locks[w] = lockAddr(g.pickSync(c, p, rng))
		emit(sim.RMW(locks[w]))
		emit(sim.Compute(30))
	}
	clock := lockAddr(clockRegion + c%clockShards)
	emit(sim.Compute(60))
	emit(sim.RMW(clock))
	for w := 0; w < writeSet; w++ {
		emit(sim.Write(sharedAddr(rng.Intn(p.SharedDataLines))))
	}
	for _, l := range locks[:writeSet] {
		emit(sim.Write(l))
	}
}

// workStealingEpisode models one round of the Chase-Lev deque plus the
// node-claiming CAS of the parallel spanning-tree program (wsq-mst): pop a
// task (the Dekker-like bottom/top synchronization whose SC accesses the
// paper's C/C++11 experiment replaces with RMWs), execute it (claiming a
// graph node with a CAS and touching its neighbours), push newly
// discovered work, and occasionally steal from a victim deque. The task
// execution between the push and the next pop is what lets the push's
// plain write of bottom leave the write buffer before the pop's RMW, as it
// does in the real program.
func (g Generator) workStealingEpisode(c int, p Profile, rng *rand.Rand, emit emitFn) {
	// Publish the previous task's results just before taking the next
	// task; these are the pending writes that make the baseline type-1
	// RMW pay for a drain at the pop.
	g.sharedOps(emit, c, p, rng, 2)

	// Pop a task: the Dekker-like sequence "write bottom; read top".
	switch g.Replacement {
	case WriteReplacement:
		emit(sim.RMW(dequeBottomAddr(c))) // SC-atomic-write -> lock xchg
		emit(sim.Read(dequeTopAddr(c)))
	case ReadReplacement:
		emit(sim.Write(dequeBottomAddr(c)))
		emit(sim.RMW(dequeTopAddr(c))) // SC-atomic-read -> lock xadd(0)
	default:
		emit(sim.Write(dequeBottomAddr(c)))
		emit(sim.Read(dequeTopAddr(c)))
		// Occasionally the pop races a thief and resolves it with a CAS
		// on top.
		if rng.Float64() < 0.2 {
			emit(sim.RMW(dequeTopAddr(c)))
		}
	}

	// Execute the task: claim a graph node with a CAS, then touch its
	// neighbours. The large node pool is what gives wsq-mst its high
	// fraction of unique RMW addresses.
	node := lockAddr(g.pickSync(c, p, rng))
	emit(sim.RMW(node))
	g.sharedOps(emit, c, p, rng, p.CriticalSectionOps)

	// Push newly discovered work: write the task slot, then publish
	// bottom.
	emit(sim.Write(sharedAddr(rng.Intn(p.SharedDataLines))))
	emit(sim.Write(dequeBottomAddr(c)))

	// Occasionally steal from a victim deque: read its anchors and CAS
	// its top.
	if g.Cores > 1 && rng.Float64() < 0.25 {
		victim := rng.Intn(g.Cores)
		if victim == c {
			victim = (victim + 1) % g.Cores
		}
		emit(sim.Read(dequeTopAddr(victim)))
		emit(sim.Read(dequeBottomAddr(victim)))
		emit(sim.RMW(dequeTopAddr(victim)))
	}

	// Local bookkeeping before the next pop; this is where the push's
	// write of bottom drains.
	g.privatePhase(emit, c, p, rng)
}

// WSQProfile returns the wsq-mst profile, the benchmark used for the
// C/C++11 read-/write-replacement comparison.
func WSQProfile() Profile {
	p, err := FindProfile("wsq-mst")
	if err != nil {
		// Table3Profiles always contains wsq-mst; reaching this is a
		// programming error.
		panic(err)
	}
	return p
}
