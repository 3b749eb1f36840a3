package sim

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// CoreStats aggregates one core's activity.
type CoreStats struct {
	Core     int
	Cycles   uint64
	Reads    uint64
	Writes   uint64
	RMWs     uint64
	Fences   uint64
	Computes uint64

	// RMWsCompleted counts the RMWs that finished; RMWs counts them at
	// dispatch, so the two differ when a deadlock strands an RMW.
	RMWsCompleted uint64
	// RMWWriteBufferCycles and RMWRaWaCycles accumulate the two components
	// of RMW cost (Fig. 11(a)) over this core's completed RMWs: the wait
	// for the write buffer (the forced drain of type-1, or the drain of a
	// reverted type-2/3 RMW), and the read and write halves (obtaining
	// permission, locking the line and any addr-list broadcast).
	RMWWriteBufferCycles uint64
	RMWRaWaCycles        uint64
	// RMWReverts counts type-2/3 RMWs that fell back to a write-buffer
	// drain; RMWBroadcasts counts RMWs that broadcast their address.
	RMWReverts    uint64
	RMWBroadcasts uint64

	// ReadStallCycles and WriteStallCycles measure time the core was
	// stalled on loads and on full write buffers respectively.
	ReadStallCycles  uint64
	WriteStallCycles uint64
}

// Result is the outcome of simulating one trace under one configuration.
//
// A Result is immutable once RunSource returns it. The result cache
// (internal/simcache) shares one *Result between every unit, report and
// job that reads the same run, so no consumer may write to it.
type Result struct {
	// Workload is the trace name; RMWType is the RMW implementation used.
	Workload string
	RMWType  core.AtomicityType
	// Cycles is the total execution time (the slowest core).
	Cycles uint64
	// PerCore holds each core's statistics.
	PerCore []CoreStats
	// Broadcasts is the total number of addr-list broadcasts; UniqueRMWs is
	// the number of distinct RMW lines touched.
	Broadcasts uint64
	UniqueRMWs int
	// Deadlocked reports that the run did not complete because every
	// remaining core was blocked (only possible with deadlock avoidance
	// disabled).
	Deadlocked bool
	// DirectoryLockDenials counts coherence requests denied because their
	// line was locked.
	DirectoryLockDenials uint64
}

// TotalRMWs returns the number of dynamic RMWs.
func (r *Result) TotalRMWs() uint64 {
	var n uint64
	for i := range r.PerCore {
		n += r.PerCore[i].RMWs
	}
	return n
}

// TotalMemOps returns the number of dynamic memory operations.
func (r *Result) TotalMemOps() uint64 {
	var n uint64
	for i := range r.PerCore {
		c := &r.PerCore[i]
		n += c.Reads + c.Writes + c.RMWs
	}
	return n
}

// AvgRMWCost returns the mean cost of a completed RMW split into its
// components. All-zero components are returned when no RMW completed.
func (r *Result) AvgRMWCost() (writeBuffer, raWa, total float64) {
	var wb, rw, n uint64
	for i := range r.PerCore {
		c := &r.PerCore[i]
		wb += c.RMWWriteBufferCycles
		rw += c.RMWRaWaCycles
		n += c.RMWsCompleted
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float64(wb) / float64(n), float64(rw) / float64(n), float64(wb+rw) / float64(n)
}

// RMWsPer1000MemOps returns the RMW density the way Table 3 reports it.
func (r *Result) RMWsPer1000MemOps() float64 {
	mem := r.TotalMemOps()
	if mem == 0 {
		return 0
	}
	return 1000 * float64(r.TotalRMWs()) / float64(mem)
}

// UniqueRMWPercent returns the percentage of dynamic RMWs whose line had
// not been RMW'd before (Table 3's "% Unique RMWs").
func (r *Result) UniqueRMWPercent() float64 {
	rmws := r.TotalRMWs()
	if rmws == 0 {
		return 0
	}
	return 100 * float64(r.UniqueRMWs) / float64(rmws)
}

// RevertPercent returns the percentage of RMWs that reverted to a
// write-buffer drain (Table 3's "% write-buffer drains for type-2/type-3").
func (r *Result) RevertPercent() float64 {
	rmws := r.TotalRMWs()
	if rmws == 0 {
		return 0
	}
	var reverts uint64
	for i := range r.PerCore {
		reverts += r.PerCore[i].RMWReverts
	}
	return 100 * float64(reverts) / float64(rmws)
}

// BroadcastsPer100RMWs returns the addr-list broadcast rate (Table 3's last
// column).
func (r *Result) BroadcastsPer100RMWs() float64 {
	rmws := r.TotalRMWs()
	if rmws == 0 {
		return 0
	}
	return 100 * float64(r.Broadcasts) / float64(rmws)
}

// RMWOverheadPercent returns the share of total execution time spent on
// RMW critical-path cycles (Fig. 11(b)). The per-core RMW cycles are
// averaged over the cores that executed at least one operation, then
// divided by the total execution time.
func (r *Result) RMWOverheadPercent() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var rmwCycles uint64
	active := 0
	for i := range r.PerCore {
		c := &r.PerCore[i]
		if c.Reads+c.Writes+c.RMWs+c.Computes == 0 {
			continue
		}
		active++
		rmwCycles += c.RMWWriteBufferCycles + c.RMWRaWaCycles
	}
	if active == 0 {
		return 0
	}
	perCore := float64(rmwCycles) / float64(active)
	return 100 * perCore / float64(r.Cycles)
}

// String renders a short human-readable summary of the run.
func (r *Result) String() string {
	wb, rw, total := r.AvgRMWCost()
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]: %d cycles, %d memops, %d RMWs\n",
		r.Workload, r.RMWType, r.Cycles, r.TotalMemOps(), r.TotalRMWs())
	fmt.Fprintf(&b, "  avg RMW cost: %.1f cycles (write-buffer %.1f + Ra/Wa %.1f)\n", total, wb, rw)
	fmt.Fprintf(&b, "  RMW density: %.2f per 1000 memops, unique %.2f%%, reverts %.2f%%, broadcasts %.2f per 100 RMWs\n",
		r.RMWsPer1000MemOps(), r.UniqueRMWPercent(), r.RevertPercent(), r.BroadcastsPer100RMWs())
	fmt.Fprintf(&b, "  RMW execution-time overhead: %.2f%%\n", r.RMWOverheadPercent())
	if r.Deadlocked {
		b.WriteString("  DEADLOCKED\n")
	}
	return b.String()
}
