package workload

import "testing"

// sweepUnitSource is one unit of the paper's sweep: radiosity on 32
// cores at scale 0.2 (64 iterations) under the default plan's seed.
func sweepUnitSource(tb testing.TB) *Source {
	tb.Helper()
	p, err := FindProfile("radiosity")
	if err != nil {
		tb.Fatal(err)
	}
	p.Iterations = int(float64(p.Iterations) * 0.2)
	src, err := Generator{Cores: 32, Seed: 20130601}.Source(p)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// BenchmarkWorkloadSource drains every core's stream of one 32-core,
// scale-0.2 sweep unit without simulating it: the generator's share of a
// cold unit on its own.
func BenchmarkWorkloadSource(b *testing.B) {
	src := sweepUnitSource(b)
	b.ReportAllocs()
	var ops int
	for i := 0; i < b.N; i++ {
		ops = 0
		for c := 0; c < src.Cores(); c++ {
			s := src.Stream(c)
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				ops++
			}
		}
	}
	b.ReportMetric(float64(ops), "ops/op")
}
