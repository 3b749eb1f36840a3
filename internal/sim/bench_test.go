package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCalendar replays the event mix of one 32-core, scale-0.2 sweep
// unit (radiosity under type-2, the unit of the root
// BenchmarkSimSweepUnit) through the calendar alone: every push and pop of
// the run, none of the modelling. ns/event divides one replay by its
// events.
func BenchmarkCalendar(b *testing.B) {
	p, err := workload.FindProfile("radiosity")
	if err != nil {
		b.Fatal(err)
	}
	p.Iterations = int(float64(p.Iterations) * 0.2)
	src, err := workload.Generator{Cores: 32, Seed: 20130601}.Source(p)
	if err != nil {
		b.Fatal(err)
	}
	mix, err := sim.RecordEventMix(sim.DefaultConfig().WithRMWType(core.Type2), src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := mix.Replay(); n != mix.Len() {
			b.Fatalf("replay popped %d events, recorded %d", n, mix.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mix.Len()), "ns/event")
}
