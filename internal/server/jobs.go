package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/litmus"
	"repro/internal/simcache"
)

// SubmitRequest is the POST /v1/jobs body: exactly one of Plan or Litmus
// selects the job kind, Mode selects how a plan's units are distributed.
type SubmitRequest struct {
	// Plan submits a simulation sweep built from the spec.
	Plan *PlanSpec `json:"plan,omitempty"`
	// Litmus submits litmus verdict units.
	Litmus *LitmusSpec `json:"litmus,omitempty"`
	// Mode is "static" (default: the engine's worker pool), "coordinate"
	// (in-process pull queue) or "fleet" (host a coordinator under
	// /v1/coord/{id}/ for HTTP workers). Litmus jobs are always static.
	Mode string `json:"mode,omitempty"`
	// Workers, LeaseTTL (Go duration string) and MaxAttempts tune the
	// coordinated modes; zero values keep the engine defaults.
	Workers     int    `json:"workers,omitempty"`
	LeaseTTL    string `json:"lease_ttl,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
}

// PlanSpec shapes a plan job like the CLI flags shape a sweep: a preset
// plus overrides. The same spec always builds the same plan (and the
// same unit identities) as `experiments` run with the matching flags.
type PlanSpec struct {
	// Preset is "default" (paper-scale) or "quick"; "" means default.
	Preset string `json:"preset,omitempty"`
	// Cores, Scale and Seed override the preset when positive / non-zero.
	Cores int     `json:"cores,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Seeds reruns the sweep under this many consecutive seeds
	// (base Seed), like the CLI's -seeds.
	Seeds int `json:"seeds,omitempty"`
}

// LitmusSpec selects the litmus tests of a litmus job: a registry test
// by name, a registry group, or an inline program in litmus syntax.
// Exactly one must be set.
type LitmusSpec struct {
	Name   string `json:"name,omitempty"`
	Group  string `json:"group,omitempty"`
	Source string `json:"source,omitempty"`
}

// job is one registry entry. The immutable identity fields are set at
// submit; the mutable completion state is guarded by mu.
type job struct {
	id      string
	seq     int    // submit order; id renders it
	kind    string // "plan" | "litmus"
	mode    string // "static" | "coordinate" | "fleet"
	created time.Time
	plan    *engine.Plan   // plan jobs only
	opts    engine.Options // plan jobs: the options the report builds from
	units   int            // planned unit count
	events  *eventLog
	coord   *engine.CoordServer // fleet jobs only

	mu       sync.Mutex
	handle   *engine.JobHandle // engine-run jobs (static/coordinate)
	state    string            // "running" | "done" | "failed"
	finished time.Time
	result   *engine.JobResult
	err      error
}

// complete records the job's terminal state and closes its event log
// with the matching terminal event.
func (j *job) complete(res *engine.JobResult, err error, at time.Time) {
	j.mu.Lock()
	j.result, j.err, j.finished = res, err, at
	if err != nil {
		j.state = "failed"
	} else {
		j.state = "done"
	}
	state, msg := j.state, ""
	if err != nil {
		msg = err.Error()
	}
	j.mu.Unlock()
	j.events.close(jobEvent{Kind: "done", State: state, Error: msg})
}

// status snapshots the mutable state.
func (j *job) status() (state string, finished time.Time, res *engine.JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.finished, j.result, j.err
}

// shardResult returns the job's shard artifact when it has one: the full
// result of a clean plan job, or the dead-letter partial of a failed
// coordinated one. Nil for litmus, running and cancelled jobs.
func (j *job) shardResult() *engine.ShardResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil && j.result.Shard != nil {
		return j.result.Shard
	}
	var dle *engine.DeadLetterError
	if errors.As(j.err, &dle) {
		return dle.Partial
	}
	return nil
}

// jsonError writes a JSON error body with the status code.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a JSON response body with the status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// planOptions resolves a PlanSpec to engine options + seed list, exactly
// mirroring how cmd/experiments folds its flags, so the spec and the
// flags build fingerprint-identical plans.
func (s *Server) planOptions(spec *PlanSpec) (engine.Options, []int64, error) {
	var opts engine.Options
	switch spec.Preset {
	case "", "default":
		opts = experiments.DefaultOptions()
	case "quick":
		opts = experiments.QuickOptions()
	default:
		return opts, nil, fmt.Errorf("unknown plan preset %q (want default or quick)", spec.Preset)
	}
	if spec.Cores < 0 {
		return opts, nil, fmt.Errorf("plan cores must be positive, got %d", spec.Cores)
	}
	if spec.Scale < 0 {
		return opts, nil, fmt.Errorf("plan scale must be positive, got %g", spec.Scale)
	}
	if spec.Seeds < 0 {
		return opts, nil, fmt.Errorf("plan seeds must be positive, got %d", spec.Seeds)
	}
	if spec.Cores > 0 {
		opts.Cores = spec.Cores
	}
	if spec.Scale > 0 {
		opts.Scale = spec.Scale
	}
	if spec.Seed != 0 {
		opts.Seed = spec.Seed
	}
	opts.Cache = s.cfg.Cache
	seedList := []int64{opts.Seed}
	for n := int64(1); n < int64(spec.Seeds); n++ {
		seedList = append(seedList, opts.Seed+n)
	}
	return opts, seedList, nil
}

// litmusTests resolves a LitmusSpec to the tests of the grid.
func litmusTests(spec *LitmusSpec) ([]*litmus.Test, error) {
	set := 0
	for _, on := range []bool{spec.Name != "", spec.Group != "", spec.Source != ""} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("a litmus spec needs exactly one of name, group or source")
	}
	switch {
	case spec.Name != "":
		t := litmus.FindTest(spec.Name)
		if t == nil {
			return nil, fmt.Errorf("unknown litmus test %q", spec.Name)
		}
		return []*litmus.Test{t}, nil
	case spec.Group != "":
		tests := litmus.ByGroup(spec.Group)
		if len(tests) == 0 {
			return nil, fmt.Errorf("unknown litmus group %q", spec.Group)
		}
		return tests, nil
	default:
		t, err := litmus.Parse(spec.Source)
		if err != nil {
			return nil, err
		}
		return []*litmus.Test{t}, nil
	}
}

// coordinationConfig folds the request's tuning fields into a
// coordination configuration for the coordinate/fleet modes.
func coordinationConfig(req *SubmitRequest) (*engine.CoordinationConfig, error) {
	cfg := &engine.CoordinationConfig{Workers: req.Workers, MaxAttempts: req.MaxAttempts}
	if req.Workers < 0 {
		return nil, fmt.Errorf("workers must be positive, got %d", req.Workers)
	}
	if req.MaxAttempts < 0 {
		return nil, fmt.Errorf("max_attempts must be positive, got %d", req.MaxAttempts)
	}
	if req.LeaseTTL != "" {
		d, err := time.ParseDuration(req.LeaseTTL)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("lease_ttl must be a positive duration, got %q", req.LeaseTTL)
		}
		cfg.LeaseTTL = d
	}
	return cfg, nil
}

// handleSubmit is POST /v1/jobs: validate, register, start, 202.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "decoding submit request: %v", err)
		return
	}
	if (req.Plan == nil) == (req.Litmus == nil) {
		jsonError(w, http.StatusBadRequest, "a job needs exactly one of plan or litmus")
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "static"
	}
	switch mode {
	case "static", "coordinate", "fleet":
	default:
		jsonError(w, http.StatusBadRequest, "unknown mode %q (want static, coordinate or fleet)", mode)
		return
	}
	if req.Litmus != nil && mode != "static" {
		jsonError(w, http.StatusBadRequest, "litmus jobs are always static; mode %q only applies to plans", mode)
		return
	}

	// Build the work before claiming a registry slot, so a bad spec
	// costs nothing.
	var (
		plan  *engine.Plan
		opts  engine.Options
		tests []*litmus.Test
		kind  string
	)
	if req.Plan != nil {
		kind = "plan"
		var seedList []int64
		var err error
		opts, seedList, err = s.planOptions(req.Plan)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
		plan, err = engine.DefaultPlanSeeds(opts, seedList...)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "building plan: %v", err)
			return
		}
	} else {
		kind = "litmus"
		var err error
		tests, err = litmusTests(req.Litmus)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var coordCfg *engine.CoordinationConfig
	if mode != "static" {
		var err error
		coordCfg, err = coordinationConfig(&req)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// Claim the registry slot under backpressure.
	s.mu.Lock()
	s.pruneLocked()
	if s.draining {
		s.mu.Unlock()
		jsonError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	if s.running >= s.cfg.MaxJobs {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, "%d jobs already running (limit %d); retry later", s.cfg.MaxJobs, s.cfg.MaxJobs)
		return
	}
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%06d", s.nextID),
		seq:     s.nextID,
		kind:    kind,
		mode:    mode,
		created: s.now(),
		plan:    plan,
		opts:    opts,
		events:  newEventLog(),
		state:   "running",
	}
	if plan != nil {
		j.units = plan.Len()
	} else {
		j.units = len(tests) * len(s.eng.Types())
	}
	s.jobs[j.id] = j
	s.running++
	s.jobsTotal++
	s.mu.Unlock()

	if err := s.startJob(j, tests, coordCfg); err != nil {
		s.finishJob(j, nil, err)
		jsonError(w, http.StatusBadRequest, "starting job: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobStatusBody(j))
}

// startJob launches the registered job's work and its completion
// watcher.
func (s *Server) startJob(j *job, tests []*litmus.Test, coordCfg *engine.CoordinationConfig) error {
	obs := func(ev engine.Event) {
		if je, ok := summarizeEvent(ev); ok {
			j.events.append(je)
		}
	}
	if j.mode == "fleet" {
		coord, err := s.eng.NewCoordServerWith(j.plan, engine.FullShard(), *coordCfg, obs)
		if err != nil {
			return err
		}
		j.coord = coord
		go func() {
			sr, err := coord.Wait(s.jobCtx)
			var res *engine.JobResult
			if sr != nil {
				res = &engine.JobResult{Shard: sr}
			}
			s.finishJob(j, res, err)
		}()
		return nil
	}
	ejob := engine.Job{Observer: obs, Coordination: coordCfg}
	if j.kind == "plan" {
		ejob.Plan = j.plan
	} else {
		ejob.Litmus = &engine.LitmusGrid{Tests: tests}
	}
	h, err := s.eng.Submit(s.jobCtx, ejob)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.handle = h
	j.mu.Unlock()
	go func() {
		res, err := h.Wait()
		s.finishJob(j, res, err)
	}()
	return nil
}

// unitEntry is one unit-index entry: the retained job that last
// finished the unit, and the unit's result in that job.
type unitEntry struct {
	job    *job
	result engine.UnitResult
}

// finishJob records a job's terminal state, queues it for expiry,
// indexes its unit results and releases its running slot; the last job
// out closes the drain gate. The finish time is stamped under s.mu, so
// the expiry queue stays in finish-time order.
func (s *Server) finishJob(j *job, res *engine.JobResult, err error) {
	s.mu.Lock()
	j.complete(res, err, s.now())
	s.finished = append(s.finished, j)
	if sr := j.shardResult(); sr != nil {
		for _, ur := range sr.Units {
			s.units[ur.Unit] = unitEntry{job: j, result: ur}
		}
	}
	s.running--
	if s.draining && s.running == 0 && s.drained != nil {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
}

// pruneLocked evicts the finished jobs past their retention TTL, with
// the unit-index entries that still point at them. The expired jobs are
// the head of the finish-ordered queue, so pruning touches only them.
// Caller holds s.mu.
func (s *Server) pruneLocked() {
	cutoff := s.now().Add(-s.cfg.RetainFinished)
	for len(s.finished) > 0 {
		j := s.finished[0]
		if _, finished, _, _ := j.status(); !finished.Before(cutoff) {
			return
		}
		s.finished[0] = nil // the queue's backing array must not keep it alive
		s.finished = s.finished[1:]
		delete(s.jobs, j.id)
		if sr := j.shardResult(); sr != nil {
			for _, ur := range sr.Units {
				if s.units[ur.Unit].job == j {
					delete(s.units, ur.Unit)
				}
			}
		}
	}
}

// retainedJobs prunes the registry and returns the retained jobs in
// submit order.
func (s *Server) retainedJobs() []*job {
	s.mu.Lock()
	s.pruneLocked()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	return jobs
}

// lookupJob resolves a job ID (pruning expired entries on the way).
func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	return s.jobs[id]
}

// jobStatusBody renders one job's status document.
func (s *Server) jobStatusBody(j *job) map[string]any {
	state, finished, _, err := j.status()
	m := j.metricsSnapshot()
	body := map[string]any{
		"id":      j.id,
		"kind":    j.kind,
		"mode":    j.mode,
		"state":   state,
		"created": j.created.UTC().Format(time.RFC3339Nano),
		"units":   j.units,
		"metrics": map[string]any{
			"units_planned":   m.UnitsPlanned,
			"units_done":      m.UnitsDone,
			"cache_hits":      m.CacheHits,
			"cache_misses":    m.CacheMisses,
			"verdicts":        m.Verdicts,
			"inflight_leases": m.InflightLeases,
			"retries":         m.Retries,
			"dlq_depth":       m.DLQDepth,
		},
		"links": map[string]string{
			"self":   "/v1/jobs/" + j.id,
			"events": "/v1/jobs/" + j.id + "/events",
		},
	}
	if j.kind == "plan" {
		body["links"].(map[string]string)["report"] = "/v1/reports/" + j.id
		body["plan_fingerprint"] = j.plan.Fingerprint()
	}
	if j.mode == "fleet" {
		body["links"].(map[string]string)["coordinator"] = "/v1/coord/" + j.id
	}
	if !finished.IsZero() {
		body["finished"] = finished.UTC().Format(time.RFC3339Nano)
	}
	if err != nil {
		body["error"] = err.Error()
	}
	return body
}

// metricsSnapshot returns the job's live counters: the handle's for
// engine-run jobs, the coordinator's for fleets.
func (j *job) metricsSnapshot() engine.Metrics {
	if j.coord != nil {
		return j.coord.Metrics()
	}
	j.mu.Lock()
	h := j.handle
	j.mu.Unlock()
	if h != nil {
		return h.Metrics()
	}
	return engine.Metrics{}
}

// handleListJobs is GET /v1/jobs: the registry in submit order.
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	retained := s.retainedJobs()
	jobs := make([]map[string]any, len(retained))
	for i, j := range retained {
		jobs[i] = s.jobStatusBody(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		jsonError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobStatusBody(j))
}

// lookupUnit resolves a unit ID through the unit index (pruning
// expired jobs on the way).
func (s *Server) lookupUnit(id engine.UnitID) (unitEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	e, ok := s.units[id]
	return e, ok
}

// handleResult is GET /v1/results/{unit}: the unit's result in the last
// retained job that finished it.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("unit")
	e, ok := s.lookupUnit(engine.UnitID(id))
	if !ok {
		jsonError(w, http.StatusNotFound, "no result for unit %q", id)
		return
	}
	writeJSON(w, http.StatusOK, e.result)
}

// handleResultByKey is GET /v1/results/by-key/{digest}: the unit result
// of a full content key, named by its 64-hex-digit digest in either
// case. A unit ID is its key digest's prefix, so the unit index answers,
// provided the indexed unit's key has exactly this digest.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	digest := strings.ToLower(r.PathValue("digest"))
	if len(digest) == 64 {
		if e, ok := s.lookupUnit(engine.UnitID(digest[:simcache.UnitIDLen])); ok {
			if u, _ := e.job.plan.Unit(e.result.Unit); u.Key.Digest() == digest {
				writeJSON(w, http.StatusOK, map[string]any{"unit": u.ID, "key": u.Key, "result": e.result.Result})
				return
			}
		}
	}
	jsonError(w, http.StatusNotFound, "no retained job has a result for content key %q", digest)
}

// handleReport is GET /v1/reports/{id}?format=ascii|json|csv: the full
// evaluation report of a finished plan job, built and encoded through
// exactly the pipeline cmd/experiments uses — the bytes are identical to
// the CLI's for the same sweep.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		jsonError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if j.kind != "plan" {
		jsonError(w, http.StatusBadRequest, "job %s is a %s job; reports cover plan sweeps", id, j.kind)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = experiments.FormatASCII
	}
	enc, err := experiments.NewEncoder(format)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	state, _, res, jerr := j.status()
	switch state {
	case "running":
		jsonError(w, http.StatusConflict, "job %s is still running (%s)", id, state)
		return
	case "failed":
		// A dead-lettered coordinated sweep still renders its partial
		// report, like the CLI does before exiting non-zero.
		var dle *engine.DeadLetterError
		if !errors.As(jerr, &dle) {
			jsonError(w, http.StatusConflict, "job %s failed: %v", id, jerr)
			return
		}
		runs, _, err := j.plan.RunsPartial(dle.Partial.Units)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.encodeReport(w, enc, format, j.opts, runs, dle.Partial.Coordination)
		return
	}
	runs, err := j.plan.Runs(res.Shard.Units)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.encodeReport(w, enc, format, j.opts, runs, res.Shard.Coordination)
}

// encodeReport builds and writes the report. It encodes to a buffer
// first so an encoding failure can still produce an error status.
func (s *Server) encodeReport(w http.ResponseWriter, enc experiments.Encoder, format string, opts engine.Options, runs []*engine.BenchmarkRun, coord *engine.Coordination) {
	report, err := experiments.BuildReport(opts, runs)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "building report: %v", err)
		return
	}
	report.Coordination = coord
	var buf bytes.Buffer
	if err := enc.Encode(&buf, report); err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding report: %v", err)
		return
	}
	switch format {
	case experiments.FormatJSON:
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	_, _ = w.Write(buf.Bytes())
}

// sortedKeys returns the map's keys sorted, for deterministic output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
