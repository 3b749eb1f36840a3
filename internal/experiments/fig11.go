package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Fig11aEntry is one benchmark's bar group in Fig. 11(a): the average
// per-RMW cost split into write-buffer and Ra/Wa components, for each RMW
// type.
type Fig11aEntry struct {
	Benchmark string `json:"benchmark"`
	// WriteBuffer and RaWa are indexed by atomicity type (serialized with
	// the numeric type as the key: "1", "2", "3"). A type a benchmark
	// does not run under (write replacement has no type-3) is absent.
	WriteBuffer map[core.AtomicityType]float64 `json:"write_buffer"`
	RaWa        map[core.AtomicityType]float64 `json:"ra_wa"`
}

// Total returns the total average RMW cost for one type.
func (e Fig11aEntry) Total(t core.AtomicityType) float64 {
	return e.WriteBuffer[t] + e.RaWa[t]
}

// ran reports whether the benchmark has a run of type t; the encoders
// print a type it has none of as absent, never as zero.
func (e Fig11aEntry) ran(t core.AtomicityType) bool {
	_, wb := e.WriteBuffer[t]
	_, rw := e.RaWa[t]
	return wb || rw
}

// Fig11bEntry is one benchmark's bar group in Fig. 11(b): the share of
// execution time spent on RMWs, per RMW type.
type Fig11bEntry struct {
	Benchmark string                         `json:"benchmark"`
	Overhead  map[core.AtomicityType]float64 `json:"overhead"`
	// Cycles records the total execution time per type, from which the
	// headline end-to-end speedups are derived.
	Cycles map[core.AtomicityType]uint64 `json:"cycles"`
}

// ran reports whether the benchmark has a run of type t.
func (e Fig11bEntry) ran(t core.AtomicityType) bool {
	_, ok := e.Cycles[t]
	return ok
}

// hasSpeedup reports whether the benchmark has runs of both type-1 and
// type t, the two that Speedup(t) compares; the encoders print a speedup
// missing either as absent.
func (e Fig11bEntry) hasSpeedup(t core.AtomicityType) bool {
	return e.ran(core.Type1) && e.ran(t)
}

// Speedup returns the percentage reduction in execution time of the given
// type relative to type-1.
func (e Fig11bEntry) Speedup(t core.AtomicityType) float64 {
	base := float64(e.Cycles[core.Type1])
	if base == 0 {
		return 0
	}
	return stats.PercentReduction(base, float64(e.Cycles[t]))
}

// Fig11FromRuns derives the Fig. 11(a) and Fig. 11(b) data from benchmark
// runs (the Table 3 set plus the wsq-mst C/C++11 variants).
func Fig11FromRuns(runs []*BenchmarkRun) ([]Fig11aEntry, []Fig11bEntry) {
	var a []Fig11aEntry
	var b []Fig11bEntry
	for _, run := range runs {
		ae := Fig11aEntry{
			Benchmark:   run.Name,
			WriteBuffer: map[core.AtomicityType]float64{},
			RaWa:        map[core.AtomicityType]float64{},
		}
		be := Fig11bEntry{
			Benchmark: run.Name,
			Overhead:  map[core.AtomicityType]float64{},
			Cycles:    map[core.AtomicityType]uint64{},
		}
		for typ, res := range run.ByType {
			wb, rw, _ := res.AvgRMWCost()
			ae.WriteBuffer[typ] = wb
			ae.RaWa[typ] = rw
			be.Overhead[typ] = res.RMWOverheadPercent()
			be.Cycles[typ] = res.Cycles
		}
		a = append(a, ae)
		b = append(b, be)
	}
	return a, b
}

// Summary condenses the headline claims of the paper's abstract: the range
// of per-RMW cost reductions of type-2 and type-3 over type-1, the largest
// end-to-end improvement, and the average share of type-1 RMW cost spent on
// the write-buffer drain.
type Summary struct {
	Type2CostReductionMin float64 `json:"type2_cost_reduction_min"`
	Type2CostReductionMax float64 `json:"type2_cost_reduction_max"`
	Type3CostReductionMin float64 `json:"type3_cost_reduction_min"`
	Type3CostReductionMax float64 `json:"type3_cost_reduction_max"`
	MaxSpeedupType2       float64 `json:"max_speedup_type2"`
	MaxSpeedupType3       float64 `json:"max_speedup_type3"`
	AvgType1DrainShare    float64 `json:"avg_type1_drain_share"`
}

// Summarize derives the headline numbers from the Fig. 11 data. Each
// range and maximum covers only the benchmarks that ran both types it
// compares (and, for a cost reduction, completed RMWs under both): a type
// a benchmark did not run contributes nothing, rather than a cost or an
// execution time of zero. A range no benchmark contributes to is zero.
func Summarize(a []Fig11aEntry, b []Fig11bEntry) Summary {
	var r2, r3, s2, s3 extent
	var drainShareSum float64
	var drainShareCount int
	for _, e := range a {
		t1 := e.Total(core.Type1)
		if t1 <= 0 {
			continue
		}
		if e.ran(core.Type2) && e.Total(core.Type2) > 0 {
			r2.add(stats.PercentReduction(t1, e.Total(core.Type2)))
		}
		if e.ran(core.Type3) && e.Total(core.Type3) > 0 {
			r3.add(stats.PercentReduction(t1, e.Total(core.Type3)))
		}
		drainShareSum += 100 * e.WriteBuffer[core.Type1] / t1
		drainShareCount++
	}
	for _, e := range b {
		if e.hasSpeedup(core.Type2) {
			s2.add(e.Speedup(core.Type2))
		}
		if e.hasSpeedup(core.Type3) {
			s3.add(e.Speedup(core.Type3))
		}
	}
	s := Summary{
		Type2CostReductionMin: r2.lo, Type2CostReductionMax: r2.hi,
		Type3CostReductionMin: r3.lo, Type3CostReductionMax: r3.hi,
		MaxSpeedupType2: s2.hi, MaxSpeedupType3: s3.hi,
	}
	if drainShareCount > 0 {
		s.AvgType1DrainShare = drainShareSum / float64(drainShareCount)
	}
	return s
}

// extent is the smallest and largest of the values added so far, both
// zero before the first.
type extent struct {
	lo, hi float64
	seen   bool
}

func (x *extent) add(v float64) {
	if !x.seen || v < x.lo {
		x.lo = v
	}
	if !x.seen || v > x.hi {
		x.hi = v
	}
	x.seen = true
}

// Render renders the summary alongside the paper's headline numbers.
func (s Summary) Render() string {
	var b strings.Builder
	b.WriteString("Headline summary (measured vs paper):\n")
	fmt.Fprintf(&b, "  type-2 RMW cost reduction: %.1f%%..%.1f%% (paper: 38.6%%..58.9%%)\n",
		s.Type2CostReductionMin, s.Type2CostReductionMax)
	fmt.Fprintf(&b, "  type-3 RMW cost reduction: up to %.1f%% (paper: up to 64.3%%)\n",
		s.Type3CostReductionMax)
	fmt.Fprintf(&b, "  best end-to-end improvement, type-2: %.1f%% (paper: up to 9.0%%)\n", s.MaxSpeedupType2)
	fmt.Fprintf(&b, "  best end-to-end improvement, type-3: %.1f%% (paper: up to 9.2%%)\n", s.MaxSpeedupType3)
	fmt.Fprintf(&b, "  write-buffer share of type-1 RMW cost: %.1f%% (paper: 58.0%% on average)\n", s.AvgType1DrainShare)
	return b.String()
}
