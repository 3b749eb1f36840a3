package directory_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/cache"
	"repro/internal/sim/directory"
	"repro/internal/sim/mesh"
	"repro/internal/workload"
)

// access is one recorded directory request; unlock marks an RMW's read
// half, whose lock is released right after the grant.
type access struct {
	r      directory.Request
	unlock bool
}

// recordRequests turns one 32-core, scale-0.2 sweep unit's operation
// streams (radiosity under the default plan's seed) into the coherence
// requests they issue -- a GetS per load, a GetM per store and a locking
// GetM per RMW -- interleaving the cores one operation at a time.
func recordRequests(tb testing.TB, cfg sim.Config) []access {
	tb.Helper()
	p, err := workload.FindProfile("radiosity")
	if err != nil {
		tb.Fatal(err)
	}
	p.Iterations = int(float64(p.Iterations) * 0.2)
	src, err := workload.Generator{Cores: cfg.Cores, Seed: 20130601}.Source(p)
	if err != nil {
		tb.Fatal(err)
	}
	streams := make([]sim.OpStream, src.Cores())
	for c := range streams {
		streams[c] = src.Stream(c)
	}
	var out []access
	for at, live := uint64(0), len(streams); live > 0; at++ {
		live = 0
		for c, s := range streams {
			op, ok := s.Next()
			if !ok {
				continue
			}
			live++
			r := directory.Request{Core: c, Line: cfg.LineOf(op.Addr), Start: at}
			switch op.Kind {
			case sim.OpRead:
				r.Kind = directory.GetS
			case sim.OpWrite:
				r.Kind = directory.GetM
			case sim.OpRMW:
				r.Kind, r.Lock = directory.GetM, true
			default:
				continue
			}
			out = append(out, access{r: r, unlock: r.Lock})
		}
	}
	return out
}

// BenchmarkDirectoryAccess replays a recorded 32-core request stream, L1
// hits and misses alike, through a fresh directory and its caches. ns/op
// is one whole replay; ns/access divides it by the stream's length.
func BenchmarkDirectoryAccess(b *testing.B) {
	cfg := sim.DefaultConfig()
	reqs := recordRequests(b, cfg)
	lat := directory.Latencies{L1: cfg.L1LatencyCycles, L2: cfg.L2LatencyCycles, Mem: cfg.MemLatencyCycles, LockRetry: cfg.LockRetryCycles}
	topo := mesh.New(cfg.Cores, cfg.LinkLatencyCycles, cfg.RouterLatencyCycles)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caches := make([]*cache.Cache, cfg.Cores)
		for c := range caches {
			caches[c] = cache.New(cache.Config{SizeBytes: cfg.L1SizeBytes, Assoc: cfg.L1Assoc, LineBytes: cfg.LineBytes})
		}
		d := directory.New(topo, caches, lat)
		for _, a := range reqs {
			if _, ok := d.Access(a.r); !ok {
				b.Fatalf("request %+v denied", a.r)
			}
			if a.unlock {
				d.Unlock(a.r.Line, a.r.Core, a.r.Start)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/access")
}
