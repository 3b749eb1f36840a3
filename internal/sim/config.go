package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
)

// Config holds the architectural parameters of the simulated chip
// multiprocessor. DefaultConfig reproduces Table 2 of the paper.
type Config struct {
	// Cores is the number of in-order cores (and mesh nodes / L2 banks).
	Cores int
	// WriteBufferDepth is the per-core write buffer capacity in entries.
	WriteBufferDepth int

	// L1SizeBytes, L1Assoc and L1LatencyCycles describe the private L1
	// data caches.
	L1SizeBytes     int
	L1Assoc         int
	L1LatencyCycles uint64
	// L2LatencyCycles is the shared L2 bank hit latency. The L2 is modelled
	// as effectively unbounded (1 MB per core in the paper), so only its
	// latency matters.
	L2LatencyCycles uint64
	// MemLatencyCycles is the main-memory latency.
	MemLatencyCycles uint64
	// LineBytes is the coherence granule.
	LineBytes int

	// LinkLatencyCycles and RouterLatencyCycles describe the 2D mesh.
	LinkLatencyCycles   uint64
	RouterLatencyCycles uint64

	// RMWType selects the RMW implementation (type-1/2/3).
	RMWType core.AtomicityType

	// BloomFilterBits and BloomHashes configure the addr-list filters
	// (128 B with 3 hash functions in the paper). RMWResetThreshold is the
	// number of inserted addresses after which all filters are reset
	// (0 disables resets, as in the paper's single-context runs).
	BloomFilterBits   int
	BloomHashes       int
	RMWResetThreshold int

	// DisableDeadlockAvoidance turns off the bloom-filter protocol for
	// type-2/3 RMWs (the naive implementation of §3.2's first paragraph).
	// Used by tests and the ablation benchmarks to demonstrate the
	// write-deadlock.
	DisableDeadlockAvoidance bool

	// ParallelDrain enables the parallel write-buffer drain of
	// Gharachorloo et al. used by the paper's baseline: during a forced
	// drain the ownership requests of all pending writes are issued
	// concurrently.
	ParallelDrain bool

	// MaxOutstandingDrains bounds how many write-buffer entries may have
	// their ownership requests outstanding at once during the background
	// drain (an MSHR-style limit). Writes still complete in FIFO order.
	MaxOutstandingDrains int

	// LockRetryCycles is the penalty charged when a coherence request was
	// denied because its line was locked and must retry after the unlock.
	LockRetryCycles uint64

	// MaxCycles bounds a simulation run; exceeding it reports an error.
	MaxCycles uint64
}

// DefaultConfig returns the paper's Table 2 configuration with type-1 RMWs.
func DefaultConfig() Config {
	return Config{
		Cores:                32,
		WriteBufferDepth:     32,
		L1SizeBytes:          32 * 1024,
		L1Assoc:              4,
		L1LatencyCycles:      2,
		L2LatencyCycles:      6,
		MemLatencyCycles:     300,
		LineBytes:            64,
		LinkLatencyCycles:    1,
		RouterLatencyCycles:  4,
		RMWType:              core.Type1,
		BloomFilterBits:      1024, // 128 B
		BloomHashes:          3,
		RMWResetThreshold:    0,
		ParallelDrain:        true,
		MaxOutstandingDrains: 4,
		LockRetryCycles:      2,
		MaxCycles:            200_000_000,
	}
}

// WithRMWType returns a copy of the configuration using the given RMW
// implementation.
func (c Config) WithRMWType(t core.AtomicityType) Config {
	c.RMWType = t
	return c
}

// WithCores returns a copy of the configuration with a different core
// count.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// maxCores bounds a configuration's core count at 32 times the paper's
// 32-core machine. The simulator's state grows with the core count — one
// small benchmark needs about 5 GB at 16,384 cores — so a larger request
// must fail validation rather than exhaust memory.
const maxCores = 1024

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: config: non-positive core count %d", c.Cores)
	case c.Cores > maxCores:
		return fmt.Errorf("sim: config: %d cores exceeds the limit of %d", c.Cores, maxCores)
	case c.WriteBufferDepth <= 0:
		return fmt.Errorf("sim: config: non-positive write buffer depth %d", c.WriteBufferDepth)
	case c.L1SizeBytes <= 0 || c.L1Assoc <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("sim: config: bad L1 geometry")
	case c.L1SizeBytes%(c.L1Assoc*c.LineBytes) != 0:
		return fmt.Errorf("sim: config: L1 size %d not divisible by assoc*line", c.L1SizeBytes)
	case c.RMWType != core.Type1 && c.RMWType != core.Type2 && c.RMWType != core.Type3:
		return fmt.Errorf("sim: config: unknown RMW type %v", c.RMWType)
	case c.BloomFilterBits <= 0 || c.BloomHashes <= 0:
		return fmt.Errorf("sim: config: bad bloom filter configuration")
	case c.MaxOutstandingDrains <= 0:
		return fmt.Errorf("sim: config: non-positive outstanding-drain limit %d", c.MaxOutstandingDrains)
	case c.MaxCycles == 0:
		return fmt.Errorf("sim: config: zero cycle limit")
	}
	return nil
}

// Digest returns a stable content digest of the configuration: the
// hex-encoded SHA-256 of an explicit name=value serialization of every
// field. Two configurations have equal digests exactly when every
// architectural parameter (including the RMW type) is equal, so the digest
// can key caches of simulation results. Each field is written by name in a
// fixed order, so the digest depends only on the values, never on the
// struct layout; a new Config field must be added to this list (the
// per-field sensitivity test in config_test.go fails loudly until it is).
func (c Config) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "sim.Config/v1\n")
	fmt.Fprintf(h, "Cores=%d\n", c.Cores)
	fmt.Fprintf(h, "WriteBufferDepth=%d\n", c.WriteBufferDepth)
	fmt.Fprintf(h, "L1SizeBytes=%d\n", c.L1SizeBytes)
	fmt.Fprintf(h, "L1Assoc=%d\n", c.L1Assoc)
	fmt.Fprintf(h, "L1LatencyCycles=%d\n", c.L1LatencyCycles)
	fmt.Fprintf(h, "L2LatencyCycles=%d\n", c.L2LatencyCycles)
	fmt.Fprintf(h, "MemLatencyCycles=%d\n", c.MemLatencyCycles)
	fmt.Fprintf(h, "LineBytes=%d\n", c.LineBytes)
	fmt.Fprintf(h, "LinkLatencyCycles=%d\n", c.LinkLatencyCycles)
	fmt.Fprintf(h, "RouterLatencyCycles=%d\n", c.RouterLatencyCycles)
	fmt.Fprintf(h, "RMWType=%d\n", int(c.RMWType))
	fmt.Fprintf(h, "BloomFilterBits=%d\n", c.BloomFilterBits)
	fmt.Fprintf(h, "BloomHashes=%d\n", c.BloomHashes)
	fmt.Fprintf(h, "RMWResetThreshold=%d\n", c.RMWResetThreshold)
	fmt.Fprintf(h, "DisableDeadlockAvoidance=%t\n", c.DisableDeadlockAvoidance)
	fmt.Fprintf(h, "ParallelDrain=%t\n", c.ParallelDrain)
	fmt.Fprintf(h, "MaxOutstandingDrains=%d\n", c.MaxOutstandingDrains)
	fmt.Fprintf(h, "LockRetryCycles=%d\n", c.LockRetryCycles)
	fmt.Fprintf(h, "MaxCycles=%d\n", c.MaxCycles)
	return hex.EncodeToString(h.Sum(nil))
}

// LineOf converts a byte address to a cache-line address.
func (c Config) LineOf(addr uint64) uint64 {
	return addr / uint64(c.LineBytes)
}

// Table2 renders the configuration in the shape of the paper's Table 2,
// suitable for the experiments tool.
func (c Config) Table2() [][2]string {
	return [][2]string{
		{"Processor", fmt.Sprintf("%d core CMP, inorder", c.Cores)},
		{"Write Buffer", fmt.Sprintf("%d-entry deep", c.WriteBufferDepth)},
		{"L1 Cache", fmt.Sprintf("private, %d KB %d-way %d-cycle latency", c.L1SizeBytes/1024, c.L1Assoc, c.L1LatencyCycles)},
		{"L2 Cache", fmt.Sprintf("shared, distributed banks, %d-cycle latency", c.L2LatencyCycles)},
		{"Memory", fmt.Sprintf("%d cycle latency", c.MemLatencyCycles)},
		{"Coherence", "MOESI distributed directory"},
		{"Interconnect", fmt.Sprintf("2D Mesh, %d-cycle link, %d-cycle router latency", c.LinkLatencyCycles, c.RouterLatencyCycles)},
		{"RMW", c.RMWType.String()},
		{"Bloom filter", fmt.Sprintf("%d B, %d hash functions", c.BloomFilterBits/8, c.BloomHashes)},
	}
}
