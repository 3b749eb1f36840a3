package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// handleMetrics is GET /metrics: the engine's aggregate counters plus
// the server's job and HTTP traffic gauges in Prometheus text exposition
// format (hand-rolled — the module takes no dependencies). Output order
// is deterministic so scrapes and tests can diff it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.eng.Metrics()
	s.mu.Lock()
	running, total := s.running, s.jobsTotal
	s.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
			name, help, name, name, formatValue(v))
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, formatValue(v))
	}

	counter("rmwtso_units_planned_total", "Work units selected for execution across all jobs.", float64(m.UnitsPlanned))
	counter("rmwtso_units_done_total", "Work units finished across all jobs (cache hits included).", float64(m.UnitsDone))
	counter("rmwtso_cache_hits_total", "Simulator units served from the result cache.", float64(m.CacheHits))
	counter("rmwtso_cache_misses_total", "Simulator units the cache missed.", float64(m.CacheMisses))
	counter("rmwtso_verdicts_total", "Litmus verdicts computed or served.", float64(m.Verdicts))
	ratio := 0.0
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		ratio = float64(m.CacheHits) / float64(lookups)
	}
	gauge("rmwtso_cache_hit_ratio", "Fraction of simulator unit lookups served from the cache.", ratio)
	gauge("rmwtso_units_per_second", "Engine-lifetime unit completion rate.", m.UnitsPerSec)
	gauge("rmwtso_dlq_depth", "Dead-lettered units across plan jobs.", float64(m.DLQDepth))
	gauge("rmwtso_jobs_inflight", "Jobs currently running.", float64(running))
	counter("rmwtso_jobs_total", "Jobs accepted since the server started.", float64(total))

	s.reqMu.Lock()
	routes := sortedKeys(s.reqs)
	fmt.Fprintf(&b, "# HELP rmwtso_http_requests_total HTTP requests served, by route and status code.\n# TYPE rmwtso_http_requests_total counter\n")
	for _, route := range routes {
		codes := make([]int, 0, len(s.reqs[route]))
		for code := range s.reqs[route] {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(&b, "rmwtso_http_requests_total{route=%q,code=\"%d\"} %d\n",
				route, code, s.reqs[route][code])
		}
	}
	s.reqMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// formatValue renders a sample value the shortest exact way.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
