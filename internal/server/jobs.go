package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// selects the job kind.
type SubmitRequest struct {
	// Plan submits a simulation sweep built from the spec.
	Plan *PlanSpec `json:"plan,omitempty"`
	// Litmus submits litmus verdict units.
	Litmus *LitmusSpec `json:"litmus,omitempty"`
	// Mode is "static" (the default), which runs the job on the engine's
	// worker pool, or "coordinate", an alias of "static" whose report
	// also carries a coordination section. Litmus jobs are always static.
	Mode string `json:"mode,omitempty"`
}

// PlanSpec shapes a plan job like the CLI flags shape a sweep: a preset
// plus overrides. The same spec always builds the same plan (and the
// same unit identities) as `experiments` run with the matching flags.
// The server bounds its Seeds at maxPlanSeeds.
type PlanSpec = engine.SweepSpec

// maxPlanSeeds bounds a plan job's seed count. Each seed adds the 26
// units of the default plan, so a submit asks for at most 2,600 units.
const maxPlanSeeds = 100

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
	mode    string // "static" | "coordinate" (static, reported as coordinated)
	created time.Time
	plan    *engine.Plan // plan jobs only
	units   int          // planned unit count
	events  *eventLog

	mu       sync.Mutex
	handle   *engine.JobHandle
	state    string // "running" | "done" | "failed"
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
// result of a clean plan job, or the partial one of a job with dead
// letters. Nil for litmus, running and cancelled jobs.
func (j *job) shardResult() *engine.ShardResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil
	}
	return j.result.Shard
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

// submission is a decoded, validated submit request: the job's kind and
// mode, and the work it runs.
type submission struct {
	kind  string         // "plan" | "litmus"
	mode  string         // "static" | "coordinate"
	plan  *engine.Plan   // plan jobs
	tests []*litmus.Test // litmus jobs
}

// parseSubmit decodes and validates a POST /v1/jobs body and builds the
// plan or the litmus tests it asks for. It has no side effects, so a bad
// spec costs no registry slot; every error it returns is the client's.
func parseSubmit(body []byte) (*submission, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding submit request: %v", err)
	}
	if (req.Plan == nil) == (req.Litmus == nil) {
		return nil, errors.New("a job needs exactly one of plan or litmus")
	}
	sub := &submission{mode: req.Mode}
	if sub.mode == "" {
		sub.mode = "static"
	}
	switch sub.mode {
	case "static", "coordinate":
	default:
		return nil, fmt.Errorf("unknown mode %q (want static or coordinate)", sub.mode)
	}
	if req.Litmus != nil && sub.mode != "static" {
		return nil, fmt.Errorf("litmus jobs are always static; mode %q only applies to plans", sub.mode)
	}

	if req.Litmus != nil {
		sub.kind = "litmus"
		var err error
		if sub.tests, err = litmusTests(req.Litmus); err != nil {
			return nil, err
		}
		return sub, nil
	}
	sub.kind = "plan"
	// The spec's own faults win over the seed bound. The bound is checked
	// on a spec whose seed count is capped just past it, so Options never
	// builds a longer seed list.
	spec := *req.Plan
	spec.Seeds = min(spec.Seeds, maxPlanSeeds+1)
	opts, seeds, err := spec.Options()
	if err != nil {
		return nil, err
	}
	if len(seeds) > maxPlanSeeds {
		return nil, fmt.Errorf("plan seeds %d exceeds the limit of %d", req.Plan.Seeds, maxPlanSeeds)
	}
	if sub.plan, err = engine.DefaultPlanSeeds(opts, seeds...); err != nil {
		return nil, fmt.Errorf("building plan: %v", err)
	}
	return sub, nil
}

// handleSubmit is POST /v1/jobs: validate, register, start, 202.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading submit request: %v", err)
		return
	}
	sub, err := parseSubmit(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
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
		kind:    sub.kind,
		mode:    sub.mode,
		created: s.now(),
		plan:    sub.plan,
		events:  newEventLog(),
		state:   "running",
	}
	if sub.plan != nil {
		j.units = sub.plan.Len()
	} else {
		j.units = len(sub.tests) * len(s.eng.Types())
	}
	s.jobs[j.id] = j
	s.running++
	s.jobsTotal++
	s.mu.Unlock()

	if err := s.startJob(j, sub); err != nil {
		s.finishJob(j, nil, err)
		jsonError(w, http.StatusBadRequest, "starting job: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobStatusBody(j))
}

// startJob launches the registered job's work and its completion
// watcher.
func (s *Server) startJob(j *job, sub *submission) error {
	obs := func(ev engine.Event) {
		if je, ok := summarizeEvent(ev); ok {
			j.events.append(je)
		}
	}
	ejob := engine.Job{Observer: obs}
	if j.kind == "plan" {
		ejob.Plan = j.plan
	} else {
		ejob.Litmus = &engine.LitmusGrid{Tests: sub.tests}
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
			"units_planned": m.UnitsPlanned,
			"units_done":    m.UnitsDone,
			"cache_hits":    m.CacheHits,
			"cache_misses":  m.CacheMisses,
			"verdicts":      m.Verdicts,
			"dlq_depth":     m.DLQDepth,
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
	if !finished.IsZero() {
		body["finished"] = finished.UTC().Format(time.RFC3339Nano)
	}
	if err != nil {
		body["error"] = err.Error()
	}
	return body
}

// metricsSnapshot returns the job's live counters from its engine
// handle; a job that has not started yet has none.
func (j *job) metricsSnapshot() engine.Metrics {
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
// evaluation report of a finished plan job, or the partial report of one
// with dead letters, built by the plan (Plan.Report) and encoded exactly
// as cmd/experiments does — the bytes are identical to the CLI's for the
// same sweep.
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
	var dle *engine.DeadLetterError
	switch {
	case state == "running":
		jsonError(w, http.StatusConflict, "job %s is still running (%s)", id, state)
		return
	case jerr != nil && !errors.As(jerr, &dle):
		// A sweep with dead letters still renders its partial report, like
		// the CLI does before exiting non-zero; no other failure has one.
		jsonError(w, http.StatusConflict, "job %s failed: %v", id, jerr)
		return
	}
	report, err := j.plan.Report(res.Shard)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "building report: %v", err)
		return
	}
	if report.Coordination == nil && j.mode == "coordinate" {
		// The coordinate alias runs on the static pool; its clients still
		// expect a coordination section.
		report.Coordination = &engine.Coordination{Mode: "in-process"}
	}
	// Encoded to a buffer first, so an encoding failure can still produce
	// an error status.
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
