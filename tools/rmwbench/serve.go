package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/rmwtso"
)

// service is an in-process rmwtso-serve on a loopback listener.
type service struct {
	url  string
	srv  *rmwtso.Server
	stop func()
}

// startService starts a server over cache and waits until it is ready.
func startService(ctx context.Context, par int, cache *rmwtso.Cache) (*service, error) {
	srv, err := rmwtso.NewServer(rmwtso.ServerConfig{Parallelism: par, Cache: cache})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln) }()
	svc := &service{url: "http://" + ln.Addr().String(), srv: srv, stop: func() { cancel(); <-done }}

	c := newClient(svc.url)
	defer c.close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		code, _, err := c.do(ctx, nil, nil, 0, "readyz", http.MethodGet, "/readyz", nil)
		if err == nil && code == http.StatusOK {
			return svc, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			svc.stop()
			return nil, fmt.Errorf("server not ready: status %d, %v", code, err)
		}
	}
}

// client is one closed-loop HTTP client holding a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response, inside a span named
// after the route.
func (c *client) do(ctx context.Context, tr *tracer, parent *active, req int64, route, method, path string, body []byte) (int, []byte, error) {
	sp := tr.start("server."+route, parent, req)
	defer sp.end()
	r, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobStatus is the part of GET /v1/jobs/{id} the clients read.
type jobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Units       int    `json:"units"`
	Fingerprint string `json:"plan_fingerprint"`
	Error       string `json:"error"`
}

// statusError reports a reply with an unexpected status.
func statusError(code int, body []byte) error {
	return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
}

// getOK is do for a GET that must succeed.
func (c *client) getOK(ctx context.Context, tr *tracer, parent *active, req int64, route, path string) ([]byte, error) {
	code, data, err := c.do(ctx, tr, parent, req, route, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, statusError(code, data)
	}
	return data, nil
}

// runJob submits a job, follows its event stream until the done frame
// and then reads its final status. Following the stream means the client
// learns of completion when the server does, so the job's latency holds
// no polling interval.
func (c *client) runJob(ctx context.Context, tr *tracer, parent *active, req int64, spec string) (jobStatus, error) {
	var st jobStatus
	code, data, err := c.do(ctx, tr, parent, req, "submit", http.MethodPost, "/v1/jobs", []byte(spec))
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted {
		return st, statusError(code, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("decoding job status: %w", err)
	}
	stream, err := c.getOK(ctx, tr, parent, req, "follow", "/v1/jobs/"+st.ID+"/events")
	if err != nil {
		return st, err
	}
	if sims, doneLast := countFrames(stream); sims != st.Units || !doneLast {
		return st, fmt.Errorf("job %s: %d sim frames for %d units, done last %v", st.ID, sims, st.Units, doneLast)
	}
	if data, err = c.getOK(ctx, tr, parent, req, "status", "/v1/jobs/"+st.ID); err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("decoding job status: %w", err)
	}
	if st.State != "done" {
		return st, fmt.Errorf("job %s %s after its done frame: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

// planSpec renders a plan job submission.
func planSpec(preset string, cores int, scale float64, seed int64, mode string) string {
	return fmt.Sprintf(`{"plan":{"preset":%q,"cores":%d,"scale":%g,"seed":%d},"mode":%q}`, preset, cores, scale, seed, mode)
}

// smallSpec is the small plan the CI serve smoke job submits (7 KB cache
// entries), at the workload seed.
func smallSpec(seed int64, mode string) string { return planSpec("quick", 4, 0.05, seed, mode) }

// sameReport reports whether a job's JSON report equals the reference. A
// coordinate-mode report additionally carries a coordination section
// (which worker ran which unit), so it is compared without it.
func sameReport(got, ref []byte, coordinated bool) bool {
	if !coordinated {
		return bytes.Equal(got, ref)
	}
	var g, r map[string]json.RawMessage
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(ref, &r) != nil {
		return false
	}
	if _, ok := g["coordination"]; !ok {
		return false
	}
	delete(g, "coordination")
	if len(g) != len(r) {
		return false
	}
	for k, v := range r {
		if !bytes.Equal(g[k], v) {
			return false
		}
	}
	return true
}

// countFrames counts an SSE replay's sim frames and checks that exactly
// one done frame ends it.
func countFrames(stream []byte) (sims int, doneLast bool) {
	dones := 0
	last := ""
	for _, line := range strings.Split(string(stream), "\n") {
		kind, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		last = kind
		switch kind {
		case "sim":
			sims++
		case "done":
			dones++
		}
	}
	return sims, dones == 1 && last == "done"
}

// warmJob is one finished set-up job with the reports every later fetch
// of it must reproduce.
type warmJob struct {
	id          string
	units       int
	fingerprint string
	reports     map[string][]byte // by format
}

// finishWarmJob runs a set-up job and fetches its reports in all formats.
func finishWarmJob(ctx context.Context, c *client, spec string) (*warmJob, error) {
	st, err := c.runJob(ctx, nil, nil, 0, spec)
	if err != nil {
		return nil, err
	}
	w := &warmJob{id: st.ID, units: st.Units, fingerprint: st.Fingerprint, reports: map[string][]byte{}}
	for _, f := range rmwtso.ReportFormats() {
		data, err := c.getOK(ctx, nil, nil, 0, "report", "/v1/reports/"+st.ID+"?format="+f)
		if err != nil {
			return nil, fmt.Errorf("%s report of %s: %w", f, st.ID, err)
		}
		w.reports[f] = data
	}
	return w, nil
}

// resultCycles is the part of a result lookup the clients check.
type resultCycles struct {
	Unit   string `json:"unit"`
	Result struct {
		Cycles uint64
	} `json:"result"`
}

// mixFixture is serve-mix after set-up: a warm server, the two warm-up
// jobs, the large plan's expected results and the clients' schedules.
type mixFixture struct {
	e       *env
	svc     *service
	cache   *rmwtso.Cache
	units   []rmwtso.Unit
	cycles  map[rmwtso.UnitID]uint64
	large   *warmJob
	small   *warmJob
	clients []*mixClient
	reqs    atomic.Int64
}

// mixClient is one closed-loop client's whole run: its seeded random
// source, its operations, and the last job it finished.
type mixClient struct {
	rng *rand.Rand
	ops []opKind
	own *warmJob
}

func setupServeMix(ctx context.Context, e *env) (*fixture, error) {
	cache, err := rmwtso.OpenCache()
	if err != nil {
		return nil, err
	}
	f, err := newMixFixture(ctx, e, cache)
	if err != nil {
		return nil, err
	}
	for ci := 0; ci < e.size.Clients; ci++ {
		rng := rand.New(rand.NewSource(e.seed*31 + int64(ci)))
		f.clients = append(f.clients, &mixClient{rng: rng, ops: schedule(rng, atLeast(1, float64(e.size.ServeOps)/float64(e.size.Clients)))})
	}
	return &fixture{measure: f.measure, close: f.svc.stop}, nil
}

// newMixFixture starts a server over an in-memory cache and runs the two
// warm-up jobs: the sweep plan and the small plan.
func newMixFixture(ctx context.Context, e *env, cache *rmwtso.Cache) (*mixFixture, error) {
	plan, err := rmwtso.DefaultPlan(sweepOptions(e.seed, e.size))
	if err != nil {
		return nil, err
	}
	svc, err := startService(ctx, e.size.Parallelism, cache)
	if err != nil {
		return nil, err
	}
	f := &mixFixture{e: e, svc: svc, cache: cache, units: plan.Units(), cycles: map[rmwtso.UnitID]uint64{}}
	ok := false
	defer func() {
		if !ok {
			svc.stop()
		}
	}()
	c := newClient(svc.url)
	defer c.close()
	if f.large, err = finishWarmJob(ctx, c, planSpec("default", e.size.Cores, e.size.Scale, e.seed, "static")); err != nil {
		return nil, err
	}
	if f.large.fingerprint != plan.Fingerprint() {
		return nil, fmt.Errorf("server built plan %s, want %s", f.large.fingerprint, plan.Fingerprint())
	}
	if f.small, err = finishWarmJob(ctx, c, smallSpec(e.seed, "static")); err != nil {
		return nil, err
	}
	for _, u := range f.units {
		data, err := c.getOK(ctx, nil, nil, 0, "result_by_unit", "/v1/results/"+string(u.ID))
		if err != nil {
			return nil, err
		}
		var rc resultCycles
		if err := json.Unmarshal(data, &rc); err != nil || rc.Result.Cycles == 0 {
			return nil, fmt.Errorf("result of unit %s: %q, %v", u.ID, data, err)
		}
		f.cycles[u.ID] = rc.Result.Cycles
	}
	ok = true
	return f, nil
}

// opKind is one kind of serve-mix client operation.
type opKind int

const (
	opJobStatic opKind = iota
	opJobCoord
	opByKey
	opByUnit
	opEvents
	opReportText
	opMetrics
)

// The latency kinds of serve-mix operations; job and lookup latencies are
// reported on their own.
const (
	kindJob    = "job"
	kindLookup = "lookup"
)

// opKinds names each operation's latency kind.
var opKinds = map[opKind]string{
	opJobStatic: kindJob, opJobCoord: kindJob, opByKey: kindLookup, opByUnit: "by_unit",
	opEvents: "replay", opReportText: "report", opMetrics: "metrics",
}

// mixBlock is the request mix, 40 operations per block: 20% jobs (half
// static, half coordinate), 50% by-key result lookups, 10% by-unit
// lookups, 10% SSE replays, 5% ASCII/CSV reports and 5% /metrics. Every
// client works through whole shuffled blocks, so the shares are exact at
// every seed. No trace of real rmwtso-serve traffic exists, so the shares
// are an unverified assumption, not a measurement.
var mixBlock = func() []opKind {
	var b []opKind
	for _, share := range []struct {
		kind opKind
		n    int
	}{
		{opJobStatic, 4}, {opJobCoord, 4}, {opByKey, 20}, {opByUnit, 4},
		{opEvents, 4}, {opReportText, 2}, {opMetrics, 2},
	} {
		for i := 0; i < share.n; i++ {
			b = append(b, share.kind)
		}
	}
	return b
}()

// schedule returns a client's n operations drawn from rng.
func schedule(rng *rand.Rand, n int) []opKind {
	out := make([]opKind, 0, n+len(mixBlock))
	for len(out) < n {
		block := append([]opKind(nil), mixBlock...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// measure runs piece p of every client's operations, each client on its
// own connection.
func (f *mixFixture) measure(ctx context.Context, tr *tracer, p int) (*outcome, error) {
	o := &outcome{}
	if p == 0 {
		checkPinned(o, f.e, "server sweep report", pinnedReportDigest, f.large.reports[rmwtso.FormatJSON])
	}
	st0 := f.cache.Stats()
	var wg sync.WaitGroup
	for _, mc := range f.clients {
		n := len(mc.ops)
		ops := mc.ops[n*p/parts : n*(p+1)/parts]
		c := newClient(f.svc.url)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for _, op := range ops {
				if ctx.Err() != nil {
					return
				}
				if j := f.do(ctx, c, tr, f.reqs.Add(1), op, mc.rng, mc.own, o); j != nil {
					mc.own = j
				}
			}
		}()
	}
	wg.Wait()
	st1 := f.cache.Stats()
	o.lookups = st1.Hits() + st1.Misses - st0.Hits() - st0.Misses
	o.hits = st1.Hits() - st0.Hits()
	return o, ctx.Err()
}

// do performs one operation and checks its output. It returns the job a
// job operation finished, which later SSE replays may pick.
func (f *mixFixture) do(ctx context.Context, c *client, tr *tracer, req int64, op opKind, rng *rand.Rand, own *warmJob, o *outcome) *warmJob {
	t0 := time.Now()
	switch op {
	case opJobStatic, opJobCoord:
		mode := "static"
		if op == opJobCoord {
			mode = "coordinate"
		}
		root := tr.start("serve.job."+mode, nil, req)
		defer root.end()
		st, err := c.runJob(ctx, tr, root, req, smallSpec(f.e.seed, mode))
		if err != nil {
			o.fail("%s job: %v", mode, err)
			return nil
		}
		data, err := c.getOK(ctx, tr, root, req, "report", "/v1/reports/"+st.ID+"?format=json")
		if err != nil {
			o.fail("report of %s job %s: %v", mode, st.ID, err)
			return nil
		}
		if !sameReport(data, f.small.reports[rmwtso.FormatJSON], op == opJobCoord) {
			o.fail("%s job %s: report differs from the warm-up job's", mode, st.ID)
			return nil
		}
		o.done(kindJob, t0, 1)
		return &warmJob{id: st.ID, units: st.Units}
	case opByKey, opByUnit:
		u := f.units[rng.Intn(len(f.units))]
		route, path := "result_by_key", "/v1/results/by-key/"+u.Key.Digest()
		if op == opByUnit {
			route, path = "result_by_unit", "/v1/results/"+string(u.ID)
		}
		data, err := c.getOK(ctx, tr, nil, req, route, path)
		if err != nil {
			o.fail("%s %s: %v", route, u.ID, err)
			return nil
		}
		var rc resultCycles
		if err := json.Unmarshal(data, &rc); err != nil || rc.Unit != string(u.ID) || rc.Result.Cycles != f.cycles[u.ID] {
			o.fail("%s %s: got unit %q with %d cycles, want %d (%v)", route, u.ID, rc.Unit, rc.Result.Cycles, f.cycles[u.ID], err)
			return nil
		}
	case opEvents:
		job := []*warmJob{f.large, f.small, own}[rng.Intn(3)]
		if job == nil {
			job = f.small
		}
		data, err := c.getOK(ctx, tr, nil, req, "events", "/v1/jobs/"+job.id+"/events")
		if err != nil {
			o.fail("events of %s: %v", job.id, err)
			return nil
		}
		if sims, doneLast := countFrames(data); sims != job.units || !doneLast {
			o.fail("events of %s: %d sim frames for %d units, done last %v", job.id, sims, job.units, doneLast)
			return nil
		}
	case opReportText:
		job := []*warmJob{f.large, f.small}[rng.Intn(2)]
		format := []string{rmwtso.FormatASCII, rmwtso.FormatCSV}[rng.Intn(2)]
		data, err := c.getOK(ctx, tr, nil, req, "report", "/v1/reports/"+job.id+"?format="+format)
		if err != nil {
			o.fail("%s report of %s: %v", format, job.id, err)
			return nil
		}
		if !bytes.Equal(data, job.reports[format]) {
			o.fail("%s report of %s differs from the warm-up fetch", format, job.id)
			return nil
		}
	case opMetrics:
		data, err := c.getOK(ctx, tr, nil, req, "metrics", "/metrics")
		if err != nil {
			o.fail("metrics: %v", err)
			return nil
		}
		if !bytes.Contains(data, []byte("rmwtso_units_done_total")) {
			o.fail("metrics: no rmwtso_units_done_total")
			return nil
		}
	}
	o.done(opKinds[op], t0, 1)
	return nil
}
